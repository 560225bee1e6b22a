#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/lint.hh"

using namespace klebsim;
using analysis::Linter;
using analysis::LintViolation;

namespace
{

std::vector<std::string>
ruleIds(const std::vector<LintViolation> &vs)
{
    std::vector<std::string> ids;
    for (const auto &v : vs)
        ids.push_back(v.rule);
    return ids;
}

bool
flagged(const std::vector<LintViolation> &vs, const std::string &rule)
{
    for (const auto &v : vs)
        if (v.rule == rule)
            return true;
    return false;
}

} // namespace

TEST(Lint, FlagsWallClockApis)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/sim/foo.cc",
        "#include <chrono>\n"
        "auto t = std::chrono::system_clock::now();\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "wall-clock");
    EXPECT_EQ(vs[0].line, 2u);

    vs = linter.scanSource("src/hw/foo.cc",
                           "long t = time(nullptr);\n");
    EXPECT_TRUE(flagged(vs, "wall-clock"));

    vs = linter.scanSource("src/hw/foo.cc",
                           "gettimeofday(&tv, nullptr);\n");
    EXPECT_TRUE(flagged(vs, "wall-clock"));
}

TEST(Lint, SimulatedTimeIsNotFlagged)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/sim/foo.cc",
        "Tick t = eq.curTick();\n"
        "Tick l = proc.lifetime();\n" // contains "time(" unanchored
        "double ms = ticksToMs(t);\n");
    EXPECT_TRUE(vs.empty()) << vs[0].str();
}

TEST(Lint, CommentsAndStringsAreIgnored)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/sim/foo.cc",
        "// rand() and time(nullptr) discussed here\n"
        "/* std::chrono::system_clock too */\n"
        "const char *label = \"Run time (ms)\";\n"
        "int x = 0; // trailing time( comment\n");
    EXPECT_TRUE(vs.empty()) << vs[0].str();
}

TEST(Lint, FlagsRawRandomness)
{
    Linter linter;
    auto vs = linter.scanSource("src/hw/foo.cc",
                                "int r = rand() % 6;\n");
    EXPECT_TRUE(flagged(vs, "raw-random"));

    vs = linter.scanSource("src/hw/foo.cc",
                           "std::random_device rd;\n");
    EXPECT_TRUE(flagged(vs, "raw-random"));

    // base/random itself is the canonical carve-out.
    vs = linter.scanSource("src/base/random.cc",
                           "std::random_device rd;\n");
    EXPECT_FALSE(flagged(vs, "raw-random"));
}

TEST(Lint, FlagsRawEventAllocation)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/kernel/foo.cc",
        "auto *ev = new EventFunctionWrapper(fn, \"x\");\n");
    EXPECT_TRUE(flagged(vs, "event-new"));

    vs = linter.scanSource(
        "src/sim/event_queue.cc",
        "auto *ev = new EventFunctionWrapper(fn, \"x\");\n");
    EXPECT_FALSE(flagged(vs, "event-new"));
}

TEST(Lint, FlagsRawThreadConstruction)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/kernel/foo.cc",
        "std::thread worker([] { run(); });\n");
    EXPECT_TRUE(flagged(vs, "raw-thread"));

    vs = linter.scanSource("bench/foo.cc",
                           "std::jthread t(fn);\n");
    EXPECT_TRUE(flagged(vs, "raw-thread"));

    vs = linter.scanSource(
        "src/hw/foo.cc",
        "std::vector<std::thread> workers;\n");
    EXPECT_TRUE(flagged(vs, "raw-thread"));

    // Querying host parallelism is fine — only construction is
    // banned.
    vs = linter.scanSource(
        "src/hw/foo.cc",
        "unsigned n = std::thread::hardware_concurrency();\n");
    EXPECT_FALSE(flagged(vs, "raw-thread"));

    // The pool implementation is the canonical carve-out.
    vs = linter.scanSource(
        "src/bench_support/trial_pool.cc",
        "std::vector<std::thread> threads;\n");
    EXPECT_FALSE(flagged(vs, "raw-thread"));
}

TEST(Lint, HotStdFunctionRuleAppliesToSubstrateOnly)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/sim/foo.hh",
        "std::function<void()> cb_;\n");
    EXPECT_TRUE(flagged(vs, "hot-std-function"));

    vs = linter.scanSource(
        "src/hw/foo.cc",
        "void arm(std::function <void()> cb);\n");
    EXPECT_TRUE(flagged(vs, "hot-std-function"));

    // Cold layers (kernel orchestration, stats, tools) may keep
    // std::function.
    vs = linter.scanSource(
        "src/kernel/foo.cc",
        "std::function<void()> onExit_;\n");
    EXPECT_FALSE(flagged(vs, "hot-std-function"));
    vs = linter.scanSource(
        "src/stats/foo.hh",
        "std::function<double()> probe_;\n");
    EXPECT_FALSE(flagged(vs, "hot-std-function"));

    // Comments and strings don't count (the InlineCallable header
    // itself explains what it replaces).
    vs = linter.scanSource(
        "src/sim/foo.cc",
        "// drop-in for std::function<void()>\n"
        "const char *s = \"std::function<void()>\";\n");
    EXPECT_TRUE(vs.empty()) << vs[0].str();

    // Allowlisted cold hooks are exempt.
    Linter allowed;
    allowed.allow("hot-std-function", "src/hw/pmu.hh");
    vs = allowed.scanSource("src/hw/pmu.hh",
                            "std::function<void()> hook_;\n");
    EXPECT_FALSE(flagged(vs, "hot-std-function"));
}

TEST(Lint, PrintfRuleAppliesToSrcOnly)
{
    Linter linter;
    auto vs = linter.scanSource("src/stats/foo.cc",
                                "printf(\"%d\\n\", x);\n");
    EXPECT_TRUE(flagged(vs, "printf-family"));

    // Bench executables legitimately print tables.
    vs = linter.scanSource("bench/foo.cc",
                          "printf(\"%d\\n\", x);\n");
    EXPECT_FALSE(flagged(vs, "printf-family"));

    // csprintf (base/str) must not look like sprintf.
    vs = linter.scanSource("src/stats/foo.cc",
                          "out += csprintf(\"%d\", x);\n");
    EXPECT_FALSE(flagged(vs, "printf-family"));

    // The logging backend is the carve-out.
    vs = linter.scanSource("src/base/logging.cc",
                          "std::fprintf(stderr, \"x\");\n");
    EXPECT_FALSE(flagged(vs, "printf-family"));
}

TEST(Lint, ExpectedGuardNames)
{
    EXPECT_EQ(Linter::expectedGuard("src/sim/event_queue.hh"),
              "KLEBSIM_SIM_EVENT_QUEUE_HH");
    EXPECT_EQ(Linter::expectedGuard("bench/bench_util.hh"),
              "KLEBSIM_BENCH_BENCH_UTIL_HH");
    EXPECT_EQ(Linter::expectedGuard("src/analysis/lint.hh"),
              "KLEBSIM_ANALYSIS_LINT_HH");
}

TEST(Lint, FlagsMissingOrWrongIncludeGuard)
{
    Linter linter;

    auto vs = linter.scanSource("src/hw/foo.hh",
                                "#pragma once\nint x;\n");
    ASSERT_TRUE(flagged(vs, "include-guard"));

    vs = linter.scanSource("src/hw/foo.hh",
                           "#ifndef WRONG_NAME_HH\n"
                           "#define WRONG_NAME_HH\n"
                           "#endif\n");
    ASSERT_TRUE(flagged(vs, "include-guard"));

    vs = linter.scanSource("src/hw/foo.hh",
                           "#ifndef KLEBSIM_HW_FOO_HH\n"
                           "#define KLEBSIM_HW_FOO_HH\n"
                           "#endif // KLEBSIM_HW_FOO_HH\n");
    EXPECT_FALSE(flagged(vs, "include-guard"));

    // Mismatched #define under a correct #ifndef.
    vs = linter.scanSource("src/hw/foo.hh",
                           "#ifndef KLEBSIM_HW_FOO_HH\n"
                           "#define KLEBSIM_HW_BAR_HH\n"
                           "#endif\n");
    EXPECT_TRUE(flagged(vs, "include-guard"));

    // A leading doc comment before the guard is fine.
    vs = linter.scanSource("src/hw/foo.hh",
                           "/**\n"
                           " * @file doc\n"
                           " */\n"
                           "\n"
                           "#ifndef KLEBSIM_HW_FOO_HH\n"
                           "#define KLEBSIM_HW_FOO_HH\n"
                           "#endif\n");
    EXPECT_FALSE(flagged(vs, "include-guard"));

    // .cc files have no guard requirement.
    vs = linter.scanSource("src/hw/foo.cc", "int x;\n");
    EXPECT_FALSE(flagged(vs, "include-guard"));
}

TEST(Lint, AllowlistSuppressesByRuleAndPrefix)
{
    Linter linter;
    linter.allow("wall-clock", "src/legacy/");
    auto vs = linter.scanSource("src/legacy/old.cc",
                                "gettimeofday(&tv, nullptr);\n");
    EXPECT_FALSE(flagged(vs, "wall-clock"));

    // Only the named rule is exempt.
    vs = linter.scanSource("src/legacy/old.cc", "int r = rand();\n");
    EXPECT_TRUE(flagged(vs, "raw-random"));

    // Other paths stay covered.
    vs = linter.scanSource("src/hw/new.cc",
                          "gettimeofday(&tv, nullptr);\n");
    EXPECT_TRUE(flagged(vs, "wall-clock"));
}

TEST(Lint, AllowlistFileParsing)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(testing::TempDir()) / "lint_allow";
    fs::create_directories(dir);
    fs::path file = dir / "allow.txt";
    {
        std::ofstream out(file);
        out << "# comment line\n"
            << "\n"
            << "wall-clock src/legacy/  # trailing comment\n";
    }

    Linter linter;
    std::string error;
    ASSERT_TRUE(linter.loadAllowlist(file.string(), &error))
        << error;
    EXPECT_TRUE(linter.allowed("wall-clock", "src/legacy/old.cc"));
    EXPECT_FALSE(linter.allowed("wall-clock", "src/hw/x.cc"));

    {
        std::ofstream out(file);
        out << "wall-clock\n"; // missing prefix
    }
    Linter strict;
    EXPECT_FALSE(strict.loadAllowlist(file.string(), &error));
    EXPECT_FALSE(error.empty());

    EXPECT_FALSE(Linter().loadAllowlist(
        (dir / "missing.txt").string(), &error));
}

TEST(Lint, ScanTreeFindsInjectedViolation)
{
    namespace fs = std::filesystem;
    fs::path root = fs::path(testing::TempDir()) / "lint_tree";
    fs::remove_all(root);
    fs::create_directories(root / "src" / "sim");
    fs::create_directories(root / "bench");
    {
        std::ofstream out(root / "src" / "sim" / "clean.cc");
        out << "int x = 1;\n";
    }
    {
        std::ofstream out(root / "src" / "sim" / "dirty.cc");
        out << "#include <chrono>\n"
            << "auto t = std::chrono::system_clock::now();\n";
    }
    {
        // Headers get the guard check.
        std::ofstream out(root / "src" / "sim" / "bad_guard.hh");
        out << "#ifndef WRONG\n#define WRONG\n#endif\n";
    }

    Linter linter;
    auto vs = linter.scanTree(root.string());
    ASSERT_EQ(vs.size(), 2u);
    // scanTree sorts files, so order is stable.
    EXPECT_EQ(vs[0].rule, "include-guard");
    EXPECT_EQ(vs[0].file, "src/sim/bad_guard.hh");
    EXPECT_EQ(vs[1].rule, "wall-clock");
    EXPECT_EQ(vs[1].file, "src/sim/dirty.cc");
    EXPECT_EQ(vs[1].line, 2u);

    EXPECT_EQ(ruleIds(linter.scanTree(
                  (root / "nonexistent").string()))
                  .size(),
              0u);
}

TEST(Lint, FaultHookCoverageFlagsUnwiredPoint)
{
    Linter linter;
    const std::string def =
        "KLEB_FAULT_POINT(timerMiss, \"timer.miss\")\n"
        "KLEB_FAULT_POINT(ioctlFail, \"ioctl.fail\")\n";
    std::vector<std::pair<std::string, std::string>> sources = {
        {"src/fault/fault_injector.cc",
         "if (p < 1.0) inject(FaultPoint::timerMiss);\n"}};

    auto vs = linter.checkFaultHookCoverage(
        "src/fault/fault_points.def", def, sources);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "fault-hook-coverage");
    EXPECT_EQ(vs[0].line, 2u);
    EXPECT_NE(vs[0].message.find("ioctlFail"), std::string::npos);

    // Wiring the second point clears the report.
    sources[0].second += "stream(FaultPoint::ioctlFail).draw();\n";
    EXPECT_TRUE(linter
                    .checkFaultHookCoverage(
                        "src/fault/fault_points.def", def, sources)
                    .empty());
}

TEST(Lint, FaultHookCoverageIgnoresRegistryAndComments)
{
    Linter linter;
    // The table's own doc comment shows the macro form; that must
    // not be parsed as an entry.
    const std::string def =
        "// Columns: KLEB_FAULT_POINT(enumerator, \"spec-key\")\n"
        "KLEB_FAULT_POINT(readerStall, \"reader.stall\")\n";

    // References inside the registry files themselves don't count
    // as wiring (the plan/table always name every point).
    std::vector<std::pair<std::string, std::string>> registry_only =
        {{"src/fault/fault_plan.cc",
          "case FaultPoint::readerStall: break;\n"},
         {"src/fault/fault_points.def", "FaultPoint::readerStall\n"},
         // A prefix match ("FaultPoint::readerStallX") is not a
         // reference either.
         {"src/fault/fault_injector.cc",
          "use(FaultPoint::readerStallExtra);\n"},
         // Nor is a mention in a comment.
         {"src/kleb/reader.cc",
          "// FaultPoint::readerStall is wired later\n"}};
    auto vs = linter.checkFaultHookCoverage(
        "src/fault/fault_points.def", def, registry_only);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_NE(vs[0].message.find("readerStall"), std::string::npos);
}

TEST(Lint, FaultHookCoverageRespectsAllowlist)
{
    Linter linter;
    linter.allow("fault-hook-coverage", "src/fault/");
    const std::string def =
        "KLEB_FAULT_POINT(targetCrash, \"target.crash\")\n";
    EXPECT_TRUE(linter
                    .checkFaultHookCoverage(
                        "src/fault/fault_points.def", def, {})
                    .empty());
}

TEST(Lint, HeartbeatCoverageFlagsUntestedCrashFault)
{
    Linter linter;
    // An entry may span lines; it is still one entry.
    const std::string def =
        "KLEB_FAULT_POINT(controllerCrash,\n"
        "                 \"controller.crash\")\n"
        "KLEB_FAULT_POINT(logTornTail, \"log.torn_tail\")\n";

    // No chaos test injects either key — naming one in a comment is
    // not an injection: two coverage holes.
    std::vector<std::pair<std::string, std::string>> tests = {
        {"tests/fault/test_recovery_chaos.cc",
         "// TODO inject log.torn_tail here\n"}};
    auto vs = linter.checkHeartbeatCoverage(
        "src/fault/fault_points.def", def, tests);
    ASSERT_EQ(vs.size(), 2u);
    EXPECT_EQ(vs[0].rule, "heartbeat-coverage");
    EXPECT_EQ(vs[0].line, 1u);
    EXPECT_NE(vs[0].message.find("controller.crash"),
              std::string::npos);
    EXPECT_NE(vs[1].message.find("log.torn_tail"),
              std::string::npos);

    // A test injecting one key clears exactly that entry.
    tests[0].second += "runSupervised(\"controller.crash=8ms\", 1);\n";
    vs = linter.checkHeartbeatCoverage(
        "src/fault/fault_points.def", def, tests);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_NE(vs[0].message.find("log.torn_tail"),
              std::string::npos);
}

TEST(Lint, HeartbeatCoverageOnlySupervisedPrefixes)
{
    Linter linter;
    // Non-supervised keys (timer.*, ioctl.*, ...) are the
    // fault-hook-coverage rule's business, not this one's; the doc
    // comment's macro form is not an entry either.
    const std::string def =
        "// Columns: KLEB_FAULT_POINT(enumerator, \"spec-key\")\n"
        "KLEB_FAULT_POINT(timerMiss, \"timer.miss\")\n"
        "KLEB_FAULT_POINT(ioctlFail, \"ioctl.fail\")\n";
    EXPECT_TRUE(linter
                    .checkHeartbeatCoverage(
                        "src/fault/fault_points.def", def, {})
                    .empty());
}

TEST(Lint, AllowlistDanglingEntryFlagged)
{
    Linter linter;
    std::string err;
    ASSERT_TRUE(linter.loadAllowlistFromString(
        "# carve-outs\n"
        "wall-clock src/gone/legacy.cc\n"
        "printf-family src/tools/report.cc\n",
        "tools/lint_allowlist.txt", &err))
        << err;

    // Only report.cc still exists: the legacy carve-out dangles,
    // and the violation points at the allowlist file and line.
    auto vs = linter.checkAllowlistEntries(
        {"src/tools/report.cc", "src/kleb/session.cc"});
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "allowlist-dangling");
    EXPECT_EQ(vs[0].file, "tools/lint_allowlist.txt");
    EXPECT_EQ(vs[0].line, 2u);
    EXPECT_NE(vs[0].text.find("src/gone/legacy.cc"),
              std::string::npos);

    // Prefix semantics: a directory prefix matching any file is
    // alive, and programmatic allow() entries are never checked.
    Linter dir_linter;
    ASSERT_TRUE(dir_linter.loadAllowlistFromString(
        "raw-random src/hw/\n", "allow.txt", &err))
        << err;
    dir_linter.allow("wall-clock", "src/never/checked.cc");
    EXPECT_TRUE(dir_linter
                    .checkAllowlistEntries({"src/hw/pmu.cc"})
                    .empty());
    EXPECT_EQ(dir_linter.checkAllowlistEntries({"src/kleb/a.cc"})
                  .size(),
              1u);
}

TEST(Lint, AllowlistEntryExcusingNothingFlagged)
{
    Linter linter;
    std::string err;
    ASSERT_TRUE(linter.loadAllowlistFromString(
        "wall-clock src/kleb/a.cc\n"
        "wall-clock src/kleb/b.cc\n",
        "tools/lint_allowlist.txt", &err))
        << err;

    // a.cc reads the host clock, so its entry excuses a finding;
    // b.cc reads none, so its entry only waits to mask a future one.
    auto vs = linter.checkAllowlistEntries(
        {"src/kleb/a.cc", "src/kleb/b.cc"},
        {{"src/kleb/a.cc",
          "auto t = std::chrono::steady_clock::now();\n"},
         {"src/kleb/b.cc", "int x = 0;\n"}});
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "allowlist-dangling");
    EXPECT_EQ(vs[0].line, 2u);
    EXPECT_NE(vs[0].message.find("excuses nothing"), std::string::npos);
}

TEST(Lint, FlagsBareMutexLocking)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/kleb/foo.cc",
        "void f(std::mutex &m, std::mutex *p)\n"
        "{\n"
        "    m.lock();\n"
        "    p->unlock();\n"
        "}\n");
    ASSERT_EQ(vs.size(), 2u);
    EXPECT_EQ(vs[0].rule, "mutex-raii");
    EXPECT_EQ(vs[0].line, 3u);
    EXPECT_EQ(vs[1].line, 4u);

    // RAII holders and lookalike identifiers stay legal.
    vs = linter.scanSource(
        "src/kleb/foo.cc",
        "void g(std::mutex &m)\n"
        "{\n"
        "    std::lock_guard<std::mutex> hold(m);\n"
        "    int lock = relock(unlock_count);\n"
        "}\n");
    EXPECT_TRUE(vs.empty());

    // base/thread_safety's own implementation is carved out.
    vs = linter.scanSource("src/base/thread_safety.hh",
                           "#ifndef KLEBSIM_BASE_THREAD_SAFETY_HH\n"
                           "#define KLEBSIM_BASE_THREAD_SAFETY_HH\n"
                           "void lock() { m_.lock(); }\n"
                           "#endif"
                           " // KLEBSIM_BASE_THREAD_SAFETY_HH\n");
    EXPECT_FALSE(flagged(vs, "mutex-raii"));
}

TEST(Lint, FlagsAllocationInHotFunctions)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/sim/foo.cc",
        "KLEB_HOT void f(std::vector<int> &v)\n"
        "{\n"
        "    v.push_back(1);\n"
        "    auto p = std::make_unique<int>(2);\n"
        "    int *q = new int(3);\n"
        "}\n");
    ASSERT_EQ(vs.size(), 3u);
    for (const auto &v : vs)
        EXPECT_EQ(v.rule, "hot-alloc");

    // The same body without the marker is legal.
    vs = linter.scanSource(
        "src/sim/foo.cc",
        "void f(std::vector<int> &v)\n"
        "{\n"
        "    v.push_back(1);\n"
        "    int *q = new int(3);\n"
        "}\n");
    EXPECT_TRUE(vs.empty());

    // A KLEB_HOT declaration (no body) must not arm the scope.
    vs = linter.scanSource(
        "src/sim/foo.cc",
        "KLEB_HOT void f(std::vector<int> &v);\n"
        "void g(std::vector<int> &v) { v.reserve(4); }\n");
    EXPECT_TRUE(vs.empty());
}

TEST(Lint, FlagsDetachedThreads)
{
    Linter linter;
    auto vs = linter.scanSource("src/kleb/foo.cc",
                                "void f(std::thread *t)\n"
                                "{\n"
                                "    t->detach();\n"
                                "}\n");
    EXPECT_TRUE(flagged(vs, "detached-thread"));

    // detach as a plain identifier is not a detach call.
    vs = linter.scanSource("src/kleb/foo.cc",
                           "int detach = 0; use(detach);\n");
    EXPECT_FALSE(flagged(vs, "detached-thread"));
}

TEST(Lint, BannedSpellingsInLiteralsAndCommentsStayLegal)
{
    Linter linter;
    auto vs = linter.scanSource(
        "src/kleb/foo.cc",
        "// gate.lock() and t.detach() in a comment\n"
        "const char *s = \"m.lock() rand() new int\";\n"
        "const char *r = R\"(v.push_back(1) t.detach())\";\n"
        // Embedded quotes in a raw string do not end it early.
        "const char *q = R\"x(a\"b\"c\" rand() tail)x\";\n");
    EXPECT_TRUE(vs.empty());
}

TEST(Lint, KnownRuleCoversTokenAndBuiltinRules)
{
    Linter linter;
    EXPECT_TRUE(linter.knownRule("wall-clock"));
    EXPECT_TRUE(linter.knownRule("mutex-raii"));
    EXPECT_TRUE(linter.knownRule("include-guard"));
    EXPECT_TRUE(linter.knownRule("fault-hook-coverage"));
    EXPECT_TRUE(linter.knownRule("heartbeat-coverage"));
    EXPECT_TRUE(linter.knownRule("allowlist-dangling"));
    EXPECT_FALSE(linter.knownRule("phase-of-moon"));
}

TEST(Lint, AllowlistEntryWithUnknownRuleFlagged)
{
    Linter linter;
    std::string err;
    ASSERT_TRUE(linter.loadAllowlistFromString(
        "wall-clock src/kleb/a.cc\n"
        "phase-of-moon src/kleb/a.cc\n",
        "tools/lint_allowlist.txt", &err))
        << err;

    // The path exists in both entries; only the retired rule id
    // dangles, and the message names it.
    auto vs = linter.checkAllowlistEntries({"src/kleb/a.cc"});
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "allowlist-dangling");
    EXPECT_EQ(vs[0].line, 2u);
    EXPECT_NE(vs[0].message.find("phase-of-moon"),
              std::string::npos);
}

TEST(Lint, FaultHookCoverageFlagsDuplicateEnumerator)
{
    Linter linter;
    const std::string def =
        "KLEB_FAULT_POINT(timerMiss, \"timer.miss\")\n"
        "KLEB_FAULT_POINT(timerMiss, \"timer.late\")\n";
    std::vector<std::pair<std::string, std::string>> sources = {
        {"src/fault/fault_injector.cc",
         "inject(FaultPoint::timerMiss);\n"}};

    auto vs = linter.checkFaultHookCoverage(
        "src/fault/fault_points.def", def, sources);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "fault-hook-coverage");
    EXPECT_EQ(vs[0].line, 2u);
    EXPECT_NE(vs[0].message.find("timerMiss"), std::string::npos);
    EXPECT_NE(vs[0].message.find("registered twice"),
              std::string::npos);
    EXPECT_NE(vs[0].message.find("line 1"), std::string::npos);
}

TEST(Lint, FaultHookCoverageFlagsDuplicateSpecKey)
{
    Linter linter;
    // Distinct enumerators, same spec key: the parser would route
    // both to whichever branch matches first, silently shadowing
    // the other point.
    const std::string def =
        "KLEB_FAULT_POINT(timerMiss, \"timer.miss\")\n"
        "KLEB_FAULT_POINT(timerSkip, \"timer.miss\")\n";
    std::vector<std::pair<std::string, std::string>> sources = {
        {"src/fault/fault_injector.cc",
         "inject(FaultPoint::timerMiss);\n"
         "inject(FaultPoint::timerSkip);\n"}};

    auto vs = linter.checkFaultHookCoverage(
        "src/fault/fault_points.def", def, sources);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].line, 2u);
    EXPECT_NE(vs[0].message.find("timer.miss"), std::string::npos);
    EXPECT_NE(vs[0].message.find("registered twice"),
              std::string::npos);

    // Unique keys stay clean.
    const std::string ok =
        "KLEB_FAULT_POINT(timerMiss, \"timer.miss\")\n"
        "KLEB_FAULT_POINT(timerSkip, \"timer.skip\")\n";
    EXPECT_TRUE(linter
                    .checkFaultHookCoverage(
                        "src/fault/fault_points.def", ok, sources)
                    .empty());
}
