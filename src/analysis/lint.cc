#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>

#include "base/str.hh"
#include "token_lexer.hh"

namespace klebsim::analysis
{

namespace fs = std::filesystem;

namespace
{

const char *const scannedDirs[] = {"src", "bench", "examples"};

bool
sourceExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".h";
}

bool
headerExtension(const std::string &rel_path)
{
    return rel_path.ends_with(".hh") || rel_path.ends_with(".h");
}

std::string
trimmed(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Trimmed text of 1-based line @p lineno ("" when out of range). */
std::string
lineAt(const std::vector<std::string> &lines, std::size_t lineno)
{
    return lineno >= 1 && lineno <= lines.size()
               ? trimmed(lines[lineno - 1])
               : std::string();
}

bool
nameContains(std::string_view name, std::string_view needle)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return lower.find(needle) != std::string::npos;
}

/** Identifier naming per-CPU state (perCpu_, per_cpu_rings, ...). */
bool
isPerCpuName(std::string_view name)
{
    return nameContains(name, "percpu") ||
           nameContains(name, "per_cpu");
}

/** Identifier that is legibly a core index (core, cpu, src_core). */
bool
isCoreishName(std::string_view name)
{
    return name == "CoreId" || nameContains(name, "core") ||
           nameContains(name, "cpu");
}

bool
identIn(const Token &t,
        std::initializer_list<std::string_view> names)
{
    if (t.kind != TokKind::identifier)
        return false;
    for (std::string_view n : names)
        if (t.text == n)
            return true;
    return false;
}

/** (rule index, line) pair recorded by the token matchers. */
struct TokenHit
{
    std::size_t rule;
    std::size_t line;
};

/**
 * Run every active built-in rule over the token stream in one
 * pass.  @p active maps rule index -> enabled; matchers record one
 * hit per match (the caller dedupes per line).
 */
void
matchTokenRules(const std::vector<Token> &toks,
                const std::vector<const LintRule *> &active,
                std::vector<TokenHit> &hits)
{
    auto at = [&toks](std::size_t i) -> const Token * {
        return i < toks.size() ? &toks[i] : nullptr;
    };
    auto enabled = [&active](std::size_t r) {
        return active[r] != nullptr;
    };
    auto hit = [&hits](std::size_t r, std::size_t line) {
        hits.push_back({r, line});
    };

    // hot-alloc scope state: brace depth, an "armed" flag set by a
    // KLEB_HOT marker (cleared by a `;` before any body opens), and
    // a stack of depths at which hot bodies started.
    int depth = 0;
    bool hotArmed = false;
    std::vector<int> hotBodies;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];

        // Scope tracking (independent of any rule being enabled so
        // the state machine stays consistent).
        if (t.isPunct("{")) {
            ++depth;
            if (hotArmed) {
                hotBodies.push_back(depth);
                hotArmed = false;
            }
        } else if (t.isPunct("}")) {
            if (!hotBodies.empty() && hotBodies.back() == depth)
                hotBodies.pop_back();
            --depth;
        } else if (t.isPunct(";")) {
            hotArmed = false; // declaration without a body
        } else if (t.isIdent("KLEB_HOT")) {
            hotArmed = true;
        }

        for (std::size_t r = 0; r < active.size(); ++r) {
            if (!enabled(r))
                continue;
            const std::string &id = active[r]->id;

            if (id == "wall-clock") {
                if (t.isIdent("std") && at(i + 1) &&
                    at(i + 1)->isPunct("::") && at(i + 2) &&
                    at(i + 2)->isIdent("chrono") && at(i + 3) &&
                    at(i + 3)->isPunct("::") && at(i + 4) &&
                    identIn(*at(i + 4),
                            {"system_clock", "steady_clock",
                             "high_resolution_clock"}))
                    hit(r, t.line);
                if (identIn(t, {"gettimeofday", "clock_gettime",
                                "localtime", "gmtime", "mktime",
                                "asctime", "ctime", "time"}) &&
                    at(i + 1) && at(i + 1)->isPunct("("))
                    hit(r, t.line);
            } else if (id == "raw-random") {
                if (identIn(t, {"rand", "srand", "srandom",
                                "drand48", "lrand48"}) &&
                    at(i + 1) && at(i + 1)->isPunct("("))
                    hit(r, t.line);
                if (t.isIdent("std") && at(i + 1) &&
                    at(i + 1)->isPunct("::") && at(i + 2) &&
                    at(i + 2)->isIdent("random_device"))
                    hit(r, t.line);
                if (t.kind == TokKind::identifier &&
                    t.text.starts_with("mt19937"))
                    hit(r, t.line);
            } else if (id == "event-new") {
                if (t.isIdent("new")) {
                    std::size_t j = i + 1;
                    if (at(j) && at(j)->isIdent("klebsim") &&
                        at(j + 1) && at(j + 1)->isPunct("::"))
                        j += 2;
                    if (at(j) && at(j)->isIdent("sim") &&
                        at(j + 1) && at(j + 1)->isPunct("::"))
                        j += 2;
                    if (at(j) &&
                        at(j)->isIdent("EventFunctionWrapper"))
                        hit(r, t.line);
                }
            } else if (id == "raw-thread") {
                if (t.isIdent("std") && at(i + 1) &&
                    at(i + 1)->isPunct("::") && at(i + 2) &&
                    identIn(*at(i + 2), {"thread", "jthread"}) &&
                    !(at(i + 3) && at(i + 3)->isPunct("::")))
                    hit(r, t.line);
            } else if (id == "hot-std-function") {
                if (t.isIdent("std") && at(i + 1) &&
                    at(i + 1)->isPunct("::") && at(i + 2) &&
                    at(i + 2)->isIdent("function") && at(i + 3) &&
                    at(i + 3)->isPunct("<"))
                    hit(r, t.line);
            } else if (id == "printf-family") {
                if (identIn(t, {"printf", "fprintf", "sprintf",
                                "snprintf", "vsnprintf", "vsprintf",
                                "vfprintf", "puts", "putchar",
                                "fputs"}) &&
                    at(i + 1) && at(i + 1)->isPunct("("))
                    hit(r, t.line);
                if (t.isIdent("std") && at(i + 1) &&
                    at(i + 1)->isPunct("::") && at(i + 2) &&
                    identIn(*at(i + 2), {"cout", "cerr"}))
                    hit(r, t.line);
            } else if (id == "mutex-raii") {
                if ((t.isPunct(".") || t.isPunct("->")) &&
                    at(i + 1) &&
                    identIn(*at(i + 1), {"lock", "unlock"}) &&
                    at(i + 2) && at(i + 2)->isPunct("("))
                    hit(r, at(i + 1)->line);
            } else if (id == "detached-thread") {
                if ((t.isPunct(".") || t.isPunct("->")) &&
                    at(i + 1) && at(i + 1)->isIdent("detach") &&
                    at(i + 2) && at(i + 2)->isPunct("("))
                    hit(r, at(i + 1)->line);
            } else if (id == "percpu-access") {
                if (t.kind == TokKind::identifier &&
                    isPerCpuName(t.text) && at(i + 1) &&
                    at(i + 1)->isPunct("[")) {
                    // Walk the index expression (respecting nested
                    // brackets): an identifier that legibly names a
                    // core — including the CoreId inside a cast —
                    // makes the access auditable; anything else
                    // (loop counters, pids, literals) is flagged.
                    bool coreish = false;
                    int brackets = 1;
                    for (std::size_t j = i + 2;
                         at(j) && brackets > 0; ++j) {
                        const Token &u = *at(j);
                        if (u.isPunct("["))
                            ++brackets;
                        else if (u.isPunct("]"))
                            --brackets;
                        else if (u.kind == TokKind::identifier &&
                                 isCoreishName(u.text))
                            coreish = true;
                    }
                    if (!coreish)
                        hit(r, t.line);
                }
            } else if (id == "hot-alloc") {
                if (hotBodies.empty())
                    continue;
                if (t.isIdent("new"))
                    hit(r, t.line);
                if (identIn(t, {"make_unique", "make_shared"}))
                    hit(r, t.line);
                if ((t.isPunct(".") || t.isPunct("->")) &&
                    at(i + 1) &&
                    identIn(*at(i + 1),
                            {"push_back", "emplace_back", "resize",
                             "reserve"}) &&
                    at(i + 2) && at(i + 2)->isPunct("("))
                    hit(r, at(i + 1)->line);
            }
        }
    }
}

/** One KLEB_FAULT_POINT(name, "key") entry of the fault registry. */
struct FaultEntry
{
    std::string name;
    std::string key;  //!< spec key; empty if not a plain literal
    std::size_t line; //!< line of the KLEB_FAULT_POINT token
};

/**
 * Parse the registry's `KLEB_FAULT_POINT ( ident , "key" )` token
 * runs.  Comments vanish in the lexer, so the table's documentation
 * of the macro form registers nothing, and an entry may span lines.
 */
std::vector<FaultEntry>
parseFaultPoints(const std::string &def_content)
{
    const std::vector<Token> toks = lexTokens(def_content);
    std::vector<FaultEntry> out;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!toks[i].isIdent("KLEB_FAULT_POINT") ||
            !toks[i + 1].isPunct("(") ||
            toks[i + 2].kind != TokKind::identifier)
            continue;
        FaultEntry e{toks[i + 2].text, "", toks[i].line};
        if (i + 4 < toks.size() && toks[i + 3].isPunct(",") &&
            toks[i + 4].kind == TokKind::stringLit) {
            const std::string &lit = toks[i + 4].text;
            if (lit.size() >= 2 && lit.front() == '"' &&
                lit.back() == '"')
                e.key = lit.substr(1, lit.size() - 2);
        }
        out.push_back(std::move(e));
    }
    return out;
}

/** The fault plan and table name every point by construction. */
bool
isRegistryFile(const std::string &rel)
{
    std::size_t slash = rel.find_last_of('/');
    std::string base =
        slash == std::string::npos ? rel : rel.substr(slash + 1);
    return base.starts_with("fault_plan.") ||
           base.starts_with("fault_points.");
}

} // anonymous namespace

std::string
LintViolation::str() const
{
    if (line == 0)
        return csprintf("%s: [%s] %s -- %s", file.c_str(),
                        rule.c_str(), text.c_str(), message.c_str());
    return csprintf("%s:%zu: [%s] %s -- %s", file.c_str(), line,
                    rule.c_str(), text.c_str(), message.c_str());
}

Linter::Linter()
    : rules_{
          {"wall-clock",
           "host wall-clock APIs leak nondeterminism; use "
           "simulated Ticks (base/types.hh)",
           {"src", "bench", "examples"}},
          {"raw-random",
           "unseeded/global randomness breaks replay; draw from a "
           "forked base/random stream",
           {"src", "bench", "examples"}},
          {"event-new",
           "raw wrapper allocation loses autoDelete ownership; "
           "use EventQueue::scheduleLambda",
           {"src", "bench", "examples"}},
          {"raw-thread",
           "raw thread construction bypasses the trial pool's "
           "determinism contract; fan work out through "
           "bench::TrialPool (bench_support/trial_pool.hh)",
           {"src", "bench", "examples"}},
          {"hot-std-function",
           "std::function heap-allocates captured state on the "
           "simulator's hot paths; store sim::InlineCallable "
           "(sim/inline_callable.hh) or a concrete functor "
           "instead (allowlist cold setup/configuration hooks)",
           {"src/sim", "src/hw"}},
          {"printf-family",
           "raw stdio in the simulator; report through "
           "base/logging or format with base/str",
           {"src"}},
          {"mutex-raii",
           "bare lock()/unlock() can leak the mutex on early "
           "return or throw; hold it through TrackedLock "
           "(base/thread_safety.hh) or std::lock_guard",
           {"src", "bench", "examples"}},
          {"hot-alloc",
           "KLEB_HOT functions are allocation-free by contract; "
           "hoist the allocation out of the hot path or drop the "
           "marker",
           {"src", "bench", "examples"}},
          {"detached-thread",
           "a detached thread escapes every join/determinism "
           "guarantee; fan work out through bench::TrialPool and "
           "join it",
           {"src", "bench", "examples"}},
          {"percpu-access",
           "per-CPU state indexed by something that is not "
           "legibly a core id; index with the CoreId (or a "
           "core/cpu-named variable) so cross-core aliasing is "
           "auditable",
           {"src", "bench", "examples"}},
      }
{
    // Canonical carve-outs: the facilities the rules point at.
    allow("raw-random", "src/base/random");
    allow("printf-family", "src/base/logging.cc");
    allow("printf-family", "src/base/str.cc");
    allow("event-new", "src/sim/event_queue.cc");
    allow("raw-thread", "src/bench_support/trial_pool");
    allow("mutex-raii", "src/base/thread_safety");
}

void
Linter::allow(const std::string &rule_id,
              const std::string &path_prefix)
{
    allow_.emplace_back(rule_id, path_prefix);
}

bool
Linter::loadAllowlist(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open allowlist: " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return loadAllowlistFromString(buf.str(), path, error);
}

bool
Linter::loadAllowlistFromString(const std::string &content,
                                const std::string &origin,
                                std::string *error)
{
    std::istringstream in(content);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string body = line.substr(0, line.find('#'));
        std::istringstream fields(body);
        std::string rule, prefix, extra;
        if (!(fields >> rule))
            continue; // blank or comment-only line
        if (!(fields >> prefix) || (fields >> extra)) {
            if (error)
                *error = csprintf("%s:%zu: expected 'rule-id "
                                  "path-prefix'", origin.c_str(),
                                  lineno);
            return false;
        }
        allow(rule, prefix);
        loaded_.push_back({rule, prefix, origin, lineno});
    }
    return true;
}

bool
Linter::allowed(const std::string &rule_id,
                const std::string &rel_path) const
{
    for (const auto &[rule, prefix] : allow_)
        if (rule == rule_id && rel_path.starts_with(prefix))
            return true;
    return false;
}

bool
Linter::ruleApplies(const LintRule &rule,
                    const std::string &rel_path) const
{
    for (const std::string &dir : rule.dirs)
        if (rel_path.starts_with(dir + "/"))
            return true;
    return false;
}

std::string
Linter::expectedGuard(const std::string &rel_path)
{
    std::string p = rel_path;
    if (p.starts_with("src/"))
        p = p.substr(4);
    std::string guard = "KLEBSIM_";
    for (char c : p) {
        guard += std::isalnum(static_cast<unsigned char>(c))
                     ? static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)))
                     : '_';
    }
    return guard;
}

void
Linter::checkGuard(const std::string &rel_path,
                   const std::vector<std::string> &lines,
                   std::vector<LintViolation> &out) const
{
    static const std::string rule = "include-guard";
    if (allowed(rule, rel_path))
        return;

    const std::string expected = expectedGuard(rel_path);
    std::size_t ifndef_line = 0;
    std::string found;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string t = trimmed(lines[i]);
        if (t.starts_with("#ifndef")) {
            found = trimmed(t.substr(7));
            ifndef_line = i + 1;
            break;
        }
        // Any other preprocessor directive or code before the
        // guard means there is no guard at the top.
        if (!t.empty() && !t.starts_with("//") &&
            !t.starts_with("/*") && !t.starts_with("*"))
            break;
    }

    if (found.empty()) {
        out.push_back({rule, rel_path, 0, "missing include guard",
                       "expected '#ifndef " + expected + "'"});
        return;
    }
    if (found != expected) {
        out.push_back({rule, rel_path, ifndef_line, "#ifndef " + found,
                       "guard should be " + expected});
        return;
    }
    // The #define must immediately follow and match.
    if (ifndef_line >= lines.size() ||
        trimmed(lines[ifndef_line]) != "#define " + expected) {
        out.push_back({rule, rel_path, ifndef_line,
                       "#ifndef " + found,
                       "'#define " + expected +
                           "' must follow the guard"});
    }
}

std::vector<LintViolation>
Linter::scanSource(const std::string &rel_path,
                   const std::string &content) const
{
    std::vector<LintViolation> out;
    const std::vector<std::string> lines = splitLines(content);

    if (headerExtension(rel_path))
        checkGuard(rel_path, lines, out);

    // Every rule matches structurally on one shared token stream.
    std::vector<const LintRule *> active(rules_.size(), nullptr);
    bool any = false;
    for (std::size_t r = 0; r < rules_.size(); ++r) {
        const LintRule &rule = rules_[r];
        if (!ruleApplies(rule, rel_path) || allowed(rule.id, rel_path))
            continue;
        active[r] = &rule;
        any = true;
    }
    if (!any)
        return out;

    const std::vector<Token> toks = lexTokens(content);
    std::vector<TokenHit> hits;
    matchTokenRules(toks, active, hits);
    // Report per (rule, line) — a line that trips a rule twice is
    // still one finding — ordered rule-major, then by line.
    std::sort(hits.begin(), hits.end(),
              [](const TokenHit &a, const TokenHit &b) {
                  return a.rule != b.rule ? a.rule < b.rule
                                          : a.line < b.line;
              });
    const TokenHit *last = nullptr;
    for (const TokenHit &h : hits) {
        if (last && last->rule == h.rule && last->line == h.line)
            continue;
        last = &h;
        out.push_back({rules_[h.rule].id, rel_path, h.line,
                       lineAt(lines, h.line), rules_[h.rule].message});
    }
    return out;
}

std::vector<LintViolation>
Linter::checkFaultHookCoverage(
    const std::string &def_rel_path, const std::string &def_content,
    const std::vector<std::pair<std::string, std::string>> &sources)
    const
{
    static const std::string rule = "fault-hook-coverage";
    std::vector<LintViolation> out;
    if (allowed(rule, def_rel_path))
        return out;

    // A point is wired where code names it as the token run
    // `FaultPoint :: name`; a mention in a comment or string is not
    // a hook.
    std::set<std::string> hooked;
    for (const auto &[rel, content] : sources) {
        if (isRegistryFile(rel))
            continue;
        const std::vector<Token> toks = lexTokens(content);
        for (std::size_t i = 0; i + 2 < toks.size(); ++i)
            if (toks[i].isIdent("FaultPoint") &&
                toks[i + 1].isPunct("::") &&
                toks[i + 2].kind == TokKind::identifier)
                hooked.insert(toks[i + 2].text);
    }

    const std::vector<std::string> lines = splitLines(def_content);
    std::map<std::string, std::size_t> seen_names;
    std::map<std::string, std::size_t> seen_keys;
    for (const FaultEntry &e : parseFaultPoints(def_content)) {
        const std::string text = lineAt(lines, e.line);

        // Registering the same enumerator or the same spec key twice
        // would make the later entry shadow the earlier one in the
        // parser's if/else chain — one of the two faults becomes
        // unreachable from any spec string.
        auto [name_it, name_fresh] = seen_names.emplace(e.name, e.line);
        if (!name_fresh)
            out.push_back(
                {rule, def_rel_path, e.line, text,
                 csprintf("fault point '%s' is registered twice "
                          "(first registered on line %zu)",
                          e.name.c_str(), name_it->second)});
        if (!e.key.empty()) {
            auto [key_it, key_fresh] = seen_keys.emplace(e.key, e.line);
            if (!key_fresh)
                out.push_back(
                    {rule, def_rel_path, e.line, text,
                     csprintf("fault spec key '%s' is registered "
                              "twice (first registered on line %zu)",
                              e.key.c_str(), key_it->second)});
        }

        if (!hooked.count(e.name))
            out.push_back(
                {rule, def_rel_path, e.line, text,
                 "fault point '" + e.name +
                     "' is registered but never wired to a hook "
                     "(no FaultPoint::" + e.name +
                     " reference outside the registry)"});
    }
    return out;
}

std::vector<LintViolation>
Linter::checkHeartbeatCoverage(
    const std::string &def_rel_path, const std::string &def_content,
    const std::vector<std::pair<std::string, std::string>> &tests)
    const
{
    static const std::string rule = "heartbeat-coverage";
    std::vector<LintViolation> out;
    if (allowed(rule, def_rel_path))
        return out;

    // A test injects a fault through a spec string, so only string
    // literals count; a key named in a comment injects nothing.
    std::vector<std::string> literals;
    for (const auto &test : tests)
        for (const Token &t : lexTokens(test.second))
            if (t.kind == TokKind::stringLit)
                literals.push_back(t.text);

    const std::vector<std::string> lines = splitLines(def_content);
    for (const FaultEntry &e : parseFaultPoints(def_content)) {
        if (!e.key.starts_with("controller.") &&
            !e.key.starts_with("log."))
            continue;
        const bool injected =
            std::any_of(literals.begin(), literals.end(),
                        [&e](const std::string &lit) {
                            return lit.find(e.key) != std::string::npos;
                        });
        if (!injected)
            out.push_back(
                {rule, def_rel_path, e.line, lineAt(lines, e.line),
                 "supervised-pipeline fault point '" + e.key +
                     "' is never injected by a chaos test under "
                     "tests/"});
    }
    return out;
}

std::vector<LintViolation>
Linter::checkAllowlistEntries(
    const std::vector<std::string> &files,
    const std::vector<std::pair<std::string, std::string>> &sources)
    const
{
    static const std::string rule = "allowlist-dangling";
    const Linter bare; // only the built-in carve-outs
    std::vector<LintViolation> out;
    for (const AllowlistEntry &entry : loaded_) {
        if (!knownRule(entry.rule)) {
            out.push_back(
                {rule, entry.origin, entry.line,
                 entry.rule + " " + entry.prefix,
                 "allowlist entry names unknown rule '" +
                     entry.rule + "'; prune it"});
            continue;
        }
        bool matches = false;
        for (const std::string &rel : files) {
            if (rel.starts_with(entry.prefix)) {
                matches = true;
                break;
            }
        }
        if (!matches) {
            out.push_back(
                {rule, entry.origin, entry.line,
                 entry.rule + " " + entry.prefix,
                 "allowlist entry matches no existing source file; "
                 "prune it"});
            continue;
        }
        // With only the built-in carve-outs, a token rule must find
        // a violation under the entry.
        const bool token = std::any_of(
            rules_.begin(), rules_.end(),
            [&](const LintRule &r) { return r.id == entry.rule; });
        bool covers = false, excuses = !token;
        for (const auto &[rel, content] : sources) {
            if (excuses || !rel.starts_with(entry.prefix))
                continue;
            covers = true;
            for (const LintViolation &v : bare.scanSource(rel, content))
                excuses = excuses || v.rule == entry.rule;
        }
        if (covers && !excuses)
            out.push_back({rule, entry.origin, entry.line,
                           entry.rule + " " + entry.prefix,
                           "allowlist entry excuses nothing; prune it"});
    }
    return out;
}

bool
Linter::knownRule(const std::string &rule_id) const
{
    for (const LintRule &rule : rules_)
        if (rule.id == rule_id)
            return true;
    return rule_id == "include-guard" ||
           rule_id == "fault-hook-coverage" ||
           rule_id == "heartbeat-coverage" ||
           rule_id == "allowlist-dangling";
}

std::vector<LintViolation>
Linter::scanTree(const std::string &root) const
{
    std::vector<LintViolation> out;
    std::vector<std::string> files;
    for (const char *dir : scannedDirs) {
        fs::path base = fs::path(root) / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (entry.is_regular_file() &&
                sourceExtension(entry.path()))
                files.push_back(
                    fs::relative(entry.path(), root)
                        .generic_string());
        }
    }
    std::sort(files.begin(), files.end());

    auto slurp = [&root](const std::string &rel) {
        std::ifstream in(fs::path(root) / rel,
                         std::ios::in | std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };

    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(files.size());
    for (const std::string &rel : files) {
        sources.emplace_back(rel, slurp(rel));
        auto file_violations =
            scanSource(rel, sources.back().second);
        out.insert(out.end(), file_violations.begin(),
                   file_violations.end());
    }

    // The chaos tests are not rule-scanned (tests may use raw
    // stdio etc.), but heartbeat coverage and allowlist hygiene
    // need to see them.
    std::vector<std::string> testFiles;
    {
        fs::path base = fs::path(root) / "tests";
        if (fs::exists(base)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(base)) {
                if (entry.is_regular_file() &&
                    sourceExtension(entry.path()))
                    testFiles.push_back(
                        fs::relative(entry.path(), root)
                            .generic_string());
            }
        }
        std::sort(testFiles.begin(), testFiles.end());
    }

    const std::string def_rel = "src/fault/fault_points.def";
    if (fs::exists(fs::path(root) / def_rel)) {
        const std::string def_content = slurp(def_rel);
        auto def_violations =
            checkFaultHookCoverage(def_rel, def_content, sources);
        out.insert(out.end(), def_violations.begin(),
                   def_violations.end());

        std::vector<std::pair<std::string, std::string>> tests;
        tests.reserve(testFiles.size());
        for (const std::string &rel : testFiles)
            tests.emplace_back(rel, slurp(rel));
        auto hb_violations =
            checkHeartbeatCoverage(def_rel, def_content, tests);
        out.insert(out.end(), hb_violations.begin(),
                   hb_violations.end());
    }

    // Stale-allowlist audit: entries must point at files that still
    // exist somewhere lintable (including tests/ and tools/, which
    // allowlists may legitimately reference).
    std::vector<std::string> allFiles = files;
    allFiles.insert(allFiles.end(), testFiles.begin(),
                    testFiles.end());
    {
        fs::path base = fs::path(root) / "tools";
        if (fs::exists(base)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(base)) {
                if (entry.is_regular_file())
                    allFiles.push_back(
                        fs::relative(entry.path(), root)
                            .generic_string());
            }
        }
    }
    auto allow_violations = checkAllowlistEntries(allFiles, sources);
    out.insert(out.end(), allow_violations.begin(),
               allow_violations.end());
    return out;
}

} // namespace klebsim::analysis
