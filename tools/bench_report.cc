/**
 * @file
 * Perf-report tool: converts google-benchmark JSON output into the
 * repo's compact `BENCH_substrate.json` format, times the experiment
 * benches end to end into `BENCH_e2e.json`, and compares a fresh run
 * of either against its checked-in baseline.
 *
 * Usage:
 *   bench_report --from-gbench <gbench.json> --out <report.json>
 *   bench_report --compare <baseline.json> <current.json>
 *                [--threshold <x>]
 *   bench_report --e2e <build-dir> --out <report.json>
 *   bench_report --compare-e2e <baseline.json> <current.json>
 *   bench_report --self-test
 *
 * Report format (one ns/op number per benchmark):
 *   {
 *     "schema": "kleb-bench-substrate-v1",
 *     "unit": "ns_per_op",
 *     "benchmarks": { "BM_EventQueueSchedule": 22.7, ... }
 *   }
 *
 * --compare exits 1 when a benchmark present in BOTH files got
 * slower than baseline * threshold (default 3.0 — generous, so the
 * CI gate stays quiet on noisy shared runners), when the
 * listener-detach invariant fails: a queue whose listener was
 * attached and detached must perform like one that never had a
 * listener (BM_EventQueueScheduleAfterListenerDetach must stay
 * within 2x of BM_EventQueueSchedule), or when the candidate run
 * contains a benchmark the baseline doesn't.  A NEW benchmark means
 * someone added a counter without regenerating the checked-in
 * baseline — exactly the state in which a later regression in it
 * would pass silently — so it fails the gate until the baseline is
 * refreshed (or the run is explicitly blessed with --allow-new).
 * Benchmarks that exist only in the baseline (retired counters) are
 * reported but never gate.
 *
 * End-to-end mode: --e2e runs every experiment bench of a build
 * (bench/CMakeLists.txt's list) at --quick, at --jobs 1 and --jobs 4
 * (abl_fleet_scale also at --jobs 2, for runFleet's 1/2/4-job
 * curve), over 3 alternating rounds: each round runs every
 * configuration once, so host drift spreads over all of them.  Each
 * run is timed from spawn to exit, and getrusage's figures for the
 * child give its user+sys seconds and minor page faults.  The report
 * holds the median, minimum and maximum of each:
 *   {
 *     "schema": "kleb-bench-e2e-v1",
 *     "args": "--quick",
 *     "rounds": 3,
 *     "cpu_features": "sse4.2 avx512f avx512dq",
 *     "runs": {
 *       "abl_fleet_scale --jobs 1": {"exit": 0, "wall_s": 0.98,
 *         "wall_s_min": ..., "wall_s_max": ..., "cpu_s": ...,
 *         "cpu_s_min": ..., "cpu_s_max": ..., "minflt": ...,
 *         "minflt_min": ..., "minflt_max": ...},
 *       ...
 *     }
 *   }
 * --compare-e2e exits 1 when a run of the current report exited
 * nonzero, is missing from the baseline (as for --compare, a run
 * added without re-recording the baseline would never be gated), or
 * its median wall time exceeds 3x the baseline's by more than 0.1 s,
 * which absorbs the start-up noise of the runs that last a few
 * milliseconds.  Wall times gate only between reports with the same
 * cpu_features: the program picks its cache walk, stream fill and
 * CRC by them, and the scalar paths are slower.  Runs only in the
 * baseline (retired configurations) are reported but never gate.
 *
 * The parsers are deliberately minimal: they handle the JSON these
 * producers emit (string keys, numbers, flat-ish structure), not
 * arbitrary JSON.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/cpu_features.hh"

extern char **environ;

#ifndef KLEB_EXPERIMENT_BENCHES
#error "tools/CMakeLists.txt sets KLEB_EXPERIMENT_BENCHES"
#endif

namespace
{

using BenchMap = std::map<std::string, double>;

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Extract the JSON string starting at text[pos] (a '"'). */
bool
parseString(const std::string &text, std::size_t *pos,
            std::string *out)
{
    if (*pos >= text.size() || text[*pos] != '"')
        return false;
    out->clear();
    for (std::size_t i = *pos + 1; i < text.size(); ++i) {
        char c = text[i];
        if (c == '\\') {
            ++i;
            if (i < text.size())
                out->push_back(text[i]);
        } else if (c == '"') {
            *pos = i + 1;
            return true;
        } else {
            out->push_back(c);
        }
    }
    return false;
}

/** Value of the "key": <num|string> pair nearest after @p from. */
bool
findField(const std::string &text, std::size_t from,
          std::size_t until, const std::string &key,
          std::string *out)
{
    const std::string needle = "\"" + key + "\"";
    std::size_t k = text.find(needle, from);
    if (k == std::string::npos || k >= until)
        return false;
    std::size_t p = text.find(':', k + needle.size());
    if (p == std::string::npos)
        return false;
    ++p;
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p])))
        ++p;
    if (p < text.size() && text[p] == '"')
        return parseString(text, &p, out);
    std::size_t e = p;
    while (e < text.size() && text[e] != ',' && text[e] != '}' &&
           text[e] != '\n')
        ++e;
    *out = text.substr(p, e - p);
    return !out->empty();
}

/**
 * Parse google-benchmark --benchmark_format=json output: scan each
 * object in the "benchmarks" array for name/real_time/time_unit.
 */
bool
parseGbench(const std::string &text, BenchMap *out,
            std::string *error)
{
    std::size_t arr = text.find("\"benchmarks\"");
    if (arr == std::string::npos) {
        *error = "no \"benchmarks\" array";
        return false;
    }
    std::size_t pos = text.find('[', arr);
    if (pos == std::string::npos) {
        *error = "malformed \"benchmarks\" array";
        return false;
    }
    while (true) {
        std::size_t obj = text.find('{', pos);
        if (obj == std::string::npos)
            break;
        std::size_t end = text.find('}', obj);
        if (end == std::string::npos)
            break;
        std::string name, rt, unit;
        if (findField(text, obj, end, "name", &name) &&
            findField(text, obj, end, "real_time", &rt)) {
            double ns = std::strtod(rt.c_str(), nullptr);
            if (findField(text, obj, end, "time_unit", &unit)) {
                if (unit == "us")
                    ns *= 1e3;
                else if (unit == "ms")
                    ns *= 1e6;
                else if (unit == "s")
                    ns *= 1e9;
            }
            // Aggregate rows (mean/median/stddev) shadow the raw
            // run under the same base name; keep the first entry.
            if (!out->count(name))
                (*out)[name] = ns;
        }
        pos = end + 1;
    }
    if (out->empty()) {
        *error = "no benchmark entries parsed";
        return false;
    }
    return true;
}

/** Parse the compact report format this tool writes. */
bool
parseReport(const std::string &text, BenchMap *out,
            std::string *error)
{
    std::size_t sec = text.find("\"benchmarks\"");
    if (sec == std::string::npos) {
        *error = "no \"benchmarks\" section";
        return false;
    }
    std::size_t pos = text.find('{', sec);
    if (pos == std::string::npos) {
        *error = "malformed \"benchmarks\" section";
        return false;
    }
    std::size_t end = text.find('}', pos);
    if (end == std::string::npos) {
        *error = "unterminated \"benchmarks\" section";
        return false;
    }
    ++pos;
    while (pos < end) {
        std::size_t q = text.find('"', pos);
        if (q == std::string::npos || q >= end)
            break;
        std::string name;
        std::size_t p = q;
        if (!parseString(text, &p, &name)) {
            *error = "bad benchmark name";
            return false;
        }
        std::size_t colon = text.find(':', p);
        if (colon == std::string::npos || colon >= end) {
            *error = "missing value for " + name;
            return false;
        }
        (*out)[name] =
            std::strtod(text.c_str() + colon + 1, nullptr);
        pos = text.find(',', colon);
        if (pos == std::string::npos || pos >= end)
            break;
        ++pos;
    }
    if (out->empty()) {
        *error = "no benchmark entries parsed";
        return false;
    }
    return true;
}

bool
writeReport(const std::string &path, const BenchMap &benches)
{
    std::ofstream outf(path);
    if (!outf)
        return false;
    outf << "{\n"
         << "  \"schema\": \"kleb-bench-substrate-v1\",\n"
         << "  \"unit\": \"ns_per_op\",\n"
         << "  \"benchmarks\": {\n";
    std::size_t i = 0;
    char buf[64];
    for (const auto &[name, ns] : benches) {
        std::snprintf(buf, sizeof(buf), "%.3f", ns);
        outf << "    \"" << name << "\": " << buf
             << (++i == benches.size() ? "\n" : ",\n");
    }
    outf << "  }\n}\n";
    return static_cast<bool>(outf);
}

/**
 * @return process exit code: 0 clean, 1 regression found.
 */
int
compare(const BenchMap &baseline, const BenchMap &current,
        double threshold, bool allow_new)
{
    int failures = 0;
    for (const auto &[name, base_ns] : baseline) {
        auto it = current.find(name);
        if (it == current.end()) {
            std::printf("  ABSENT   %-44s (baseline %.1f ns)\n",
                        name.c_str(), base_ns);
            continue;
        }
        double ratio =
            base_ns > 0.0 ? it->second / base_ns : 1.0;
        const char *tag = "ok";
        if (ratio > threshold) {
            tag = "REGRESSED";
            ++failures;
        }
        std::printf("  %-9s %-44s %9.1f -> %9.1f ns (%.2fx)\n",
                    tag, name.c_str(), base_ns, it->second, ratio);
    }
    int unbaselined = 0;
    for (const auto &[name, ns] : current) {
        if (baseline.count(name))
            continue;
        std::printf("  NEW      %-44s %9.1f ns%s\n", name.c_str(),
                    ns, allow_new ? " (allowed)" : "");
        if (!allow_new)
            ++unbaselined;
    }
    if (unbaselined > 0) {
        std::printf("bench_report: %d benchmark(s) missing from "
                    "the baseline — regenerate it (or bless the "
                    "run with --allow-new)\n",
                    unbaselined);
        failures += unbaselined;
    }

    // Listener-detach invariant: detaching must restore the
    // no-listener fast path.
    auto sched = current.find("BM_EventQueueSchedule");
    auto detach =
        current.find("BM_EventQueueScheduleAfterListenerDetach");
    if (sched != current.end() && detach != current.end() &&
        sched->second > 0.0) {
        double ratio = detach->second / sched->second;
        if (ratio > 2.0) {
            std::printf("  REGRESSED listener detach leaves "
                        "schedule %.2fx slower (limit 2x)\n",
                        ratio);
            ++failures;
        } else {
            std::printf("  ok        listener detach restores "
                        "baseline (%.2fx)\n",
                        ratio);
        }
    }

    if (failures > 0) {
        std::printf("bench_report: %d regression(s) beyond %.1fx\n",
                    failures, threshold);
        return 1;
    }
    std::printf("bench_report: within %.1fx of baseline\n",
                threshold);
    return 0;
}

/** Alternating rounds of every configuration in an --e2e run. */
constexpr int e2eRounds = 3;

/** Median, minimum and maximum of one measure over the rounds. */
struct Spread
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

Spread
spreadOf(std::vector<double> v)
{
    Spread s;
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    s.median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
    s.min = v.front();
    s.max = v.back();
    return s;
}

/** One configuration's measures over the rounds. */
struct E2eRun
{
    int exit = 0; //!< the first nonzero exit status, or 0
    Spread wall;  //!< seconds from spawn to exit
    Spread cpu;   //!< the child's user+sys seconds
    Spread minflt; //!< the child's minor page faults
};

/**
 * An end-to-end report: the host's path-picking CPU features and each
 * configuration's measures.
 */
struct E2eReport
{
    /**
     * The CPU features the program picks its cache walk, stream fill
     * and CRC paths by (base/cpu_features.hh), e.g. "sse4.2 avx512f
     * avx512dq".  Wall times compare only between hosts that take
     * the same paths.
     */
    std::string cpuFeatures;
    std::map<std::string, E2eRun> runs;
};

/** This host's E2eReport::cpuFeatures. */
std::string
hostCpuFeatures()
{
    std::string out;
    for (const auto &[name, present] :
         {std::pair{"sse4.2", klebsim::hostHasSse42()},
          std::pair{"avx512f", klebsim::hostHasAvx512f()},
          std::pair{"avx512dq", klebsim::hostHasAvx512dq()}})
        if (present)
            out += (out.empty() ? "" : " ") + std::string(name);
    return out;
}

/**
 * Run @p argv with its standard output sent to /dev/null, wait for
 * it, and fill in its wall and user+sys seconds, minor faults and
 * exit status (128 + the signal for a killed child).
 * @return false if it could not be spawned
 */
bool
runTimed(const std::vector<std::string> &argv, double *wall, double *cpu,
         double *minflt, int *status)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const auto start = std::chrono::steady_clock::now();
    pid_t pid = 0;
    const int err = posix_spawn(&pid, args[0], &actions, nullptr,
                                args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (err != 0)
        return false;
    int raw = 0;
    struct rusage ru = {};
    pid_t waited = -1;
    while ((waited = wait4(pid, &raw, 0, &ru)) < 0 && errno == EINTR) {
    }
    if (waited != pid)
        return false;
    *wall = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    *cpu = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    *minflt = static_cast<double>(ru.ru_minflt);
    *status = WIFEXITED(raw) ? WEXITSTATUS(raw) : 128 + WTERMSIG(raw);
    return true;
}

/**
 * Time every experiment bench of @p build_dir over e2eRounds
 * alternating rounds into @p out.
 * @return false if a bench could not be spawned
 */
bool
measureE2e(const std::string &build_dir, E2eReport *out)
{
    std::vector<std::string> benches;
    std::istringstream list(KLEB_EXPERIMENT_BENCHES);
    for (std::string b; std::getline(list, b, ',');)
        benches.push_back(b);
    struct Samples
    {
        std::vector<double> wall, cpu, minflt;
        int exit = 0;
    };
    std::map<std::string, Samples> samples;
    for (int r = 0; r < e2eRounds; ++r) {
        for (const std::string &bench : benches) {
            std::vector<unsigned> jobs{1, 4};
            if (bench == "abl_fleet_scale")
                jobs = {1, 2, 4};
            for (unsigned j : jobs) {
                const std::string name =
                    bench + " --jobs " + std::to_string(j);
                Samples &s = samples[name];
                double wall = 0, cpu = 0, minflt = 0;
                int status = 0;
                if (!runTimed({build_dir + "/bench/" + bench, "--quick",
                               "--jobs", std::to_string(j)},
                              &wall, &cpu, &minflt, &status)) {
                    std::fprintf(stderr, "bench_report: cannot run %s\n",
                                 (build_dir + "/bench/" + bench).c_str());
                    return false;
                }
                s.wall.push_back(wall);
                s.cpu.push_back(cpu);
                s.minflt.push_back(minflt);
                if (s.exit == 0)
                    s.exit = status;
                std::printf("round %d/%d  %-40s %7.3f s wall %7.3f s cpu "
                            "%8.0f minflt%s\n",
                            r + 1, e2eRounds, name.c_str(), wall, cpu,
                            minflt, status ? "  EXIT NONZERO" : "");
                std::fflush(stdout);
            }
        }
    }
    out->cpuFeatures = hostCpuFeatures();
    for (const auto &[name, s] : samples)
        out->runs[name] = {s.exit, spreadOf(s.wall), spreadOf(s.cpu),
                           spreadOf(s.minflt)};
    return true;
}

std::string
e2eReportText(const E2eReport &report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"kleb-bench-e2e-v1\",\n"
        << "  \"args\": \"--quick\",\n"
        << "  \"rounds\": " << e2eRounds << ",\n"
        << "  \"cpu_features\": \"" << report.cpuFeatures << "\",\n"
        << "  \"runs\": {\n";
    const auto &runs = report.runs;
    std::size_t i = 0;
    char buf[512];
    for (const auto &[name, r] : runs) {
        std::snprintf(
            buf, sizeof(buf),
            "    \"%s\": {\"exit\": %d, "
            "\"wall_s\": %.3f, \"wall_s_min\": %.3f, "
            "\"wall_s_max\": %.3f, \"cpu_s\": %.3f, "
            "\"cpu_s_min\": %.3f, \"cpu_s_max\": %.3f, "
            "\"minflt\": %.0f, \"minflt_min\": %.0f, "
            "\"minflt_max\": %.0f}",
            name.c_str(), r.exit, r.wall.median, r.wall.min, r.wall.max,
            r.cpu.median, r.cpu.min, r.cpu.max, r.minflt.median,
            r.minflt.min, r.minflt.max);
        out << buf << (++i == runs.size() ? "\n" : ",\n");
    }
    out << "  }\n}\n";
    return out.str();
}

/**
 * Parse the CPU features and the exit status and median wall time of
 * each run of an end-to-end report; the comparator needs no other
 * field.
 */
bool
parseE2e(const std::string &text, E2eReport *out, std::string *error)
{
    if (!findField(text, 0, text.size(), "cpu_features", &out->cpuFeatures)) {
        *error = "no \"cpu_features\" field";
        return false;
    }
    std::size_t sec = text.find("\"runs\"");
    if (sec == std::string::npos) {
        *error = "no \"runs\" section";
        return false;
    }
    std::size_t pos = text.find('{', sec);
    if (pos == std::string::npos) {
        *error = "malformed \"runs\" section";
        return false;
    }
    ++pos;
    while (true) {
        std::size_t q = text.find_first_of("\"}", pos);
        if (q == std::string::npos || text[q] == '}')
            break;
        std::string name;
        std::size_t p = q;
        if (!parseString(text, &p, &name)) {
            *error = "bad run name";
            return false;
        }
        const std::size_t obj = text.find('{', p);
        const std::size_t end =
            obj == std::string::npos ? obj : text.find('}', obj);
        std::string exit, wall;
        if (end == std::string::npos ||
            !findField(text, obj, end, "exit", &exit) ||
            !findField(text, obj, end, "wall_s", &wall)) {
            *error = "incomplete run " + name;
            return false;
        }
        E2eRun &r = out->runs[name];
        r.exit = std::atoi(exit.c_str());
        r.wall.median = std::strtod(wall.c_str(), nullptr);
        pos = end + 1;
    }
    if (out->runs.empty()) {
        *error = "no runs parsed";
        return false;
    }
    return true;
}

/** How many times its baseline a run's median may take. */
constexpr double e2eThreshold = 3.0;

/**
 * Seconds a run's median may exceed baseline * e2eThreshold by before
 * it counts as regressed.  Several benches run for a few milliseconds
 * at --quick, which is mostly process start-up, and a shared runner
 * can triple that without any change to the program.
 */
constexpr double e2eSlackSeconds = 0.1;

/**
 * @return process exit code: 0 clean, 1 a run exited nonzero, is not
 *         in the baseline, or regressed beyond e2eThreshold.  Wall
 *         times gate only when both reports were measured on hosts
 *         that take the same paths.
 */
int
compareE2e(const E2eReport &baseline, const E2eReport &current)
{
    const bool comparable = baseline.cpuFeatures == current.cpuFeatures;
    if (!comparable)
        std::printf("bench_report: the baseline host's paths follow "
                    "[%s], this host's [%s]; wall times are not "
                    "comparable and do not gate\n",
                    baseline.cpuFeatures.c_str(),
                    current.cpuFeatures.c_str());
    int failures = 0;
    for (const auto &[name, cur] : current.runs) {
        auto it = baseline.runs.find(name);
        if (cur.exit != 0) {
            std::printf("  FAILED    %-40s exit %d\n", name.c_str(),
                        cur.exit);
            ++failures;
        } else if (it == baseline.runs.end()) {
            std::printf("  NEW       %-40s %8.3f s (not in the baseline; "
                        "re-record it)\n",
                        name.c_str(), cur.wall.median);
            ++failures;
        } else {
            const double base = it->second.wall.median;
            const double ratio =
                base > 0.0 ? cur.wall.median / base : 1.0;
            const bool regressed =
                comparable &&
                cur.wall.median > base * e2eThreshold + e2eSlackSeconds;
            failures += regressed;
            std::printf("  %-9s %-40s %8.3f -> %8.3f s (%.2fx)\n",
                        regressed    ? "REGRESSED"
                        : comparable ? "ok"
                                     : "ungated",
                        name.c_str(), base, cur.wall.median, ratio);
        }
    }
    for (const auto &[name, base] : baseline.runs)
        if (!current.runs.count(name))
            std::printf("  ABSENT    %-40s (baseline %.3f s)\n",
                        name.c_str(), base.wall.median);
    if (failures > 0) {
        std::printf("bench_report: %d run(s) failed, new or regressed "
                    "beyond %.1fx\n",
                    failures, e2eThreshold);
        return 1;
    }
    std::printf("bench_report: every run within %.1fx of baseline\n",
                e2eThreshold);
    return 0;
}

int
selfTest()
{
    int failed = 0;
    auto check = [&failed](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "self-test FAILED: %s\n", what);
            ++failed;
        }
    };

    const std::string gbench = R"({
      "context": {"date": "x", "num_cpus": 8},
      "benchmarks": [
        {"name": "BM_A", "real_time": 12.5, "time_unit": "ns"},
        {"name": "BM_B/16", "real_time": 2.0, "time_unit": "us",
         "items_per_second": 1e6},
        {"name": "BM_A", "real_time": 99.0, "time_unit": "ns"}
      ]
    })";
    BenchMap parsed;
    std::string error;
    check(parseGbench(gbench, &parsed, &error), "gbench parse");
    check(parsed.size() == 2, "gbench entry count");
    check(parsed["BM_A"] == 12.5, "first entry wins");
    check(parsed["BM_B/16"] == 2000.0, "us -> ns conversion");

    const std::string report = R"({
      "schema": "kleb-bench-substrate-v1",
      "unit": "ns_per_op",
      "benchmarks": {
        "BM_A": 12.500,
        "BM_B/16": 2000.000
      }
    })";
    BenchMap rt;
    check(parseReport(report, &rt, &error), "report parse");
    check(rt.size() == 2 && rt["BM_A"] == 12.5 &&
              rt["BM_B/16"] == 2000.0,
          "report round-trip values");

    BenchMap base{{"BM_A", 10.0}, {"BM_GONE", 5.0}};
    BenchMap ok{{"BM_A", 25.0}};
    BenchMap bad{{"BM_A", 31.0}};
    check(compare(base, ok, 3.0, false) == 0, "2.5x passes at 3x");
    check(compare(base, bad, 3.0, false) == 1, "3.1x fails at 3x");

    BenchMap fresh{{"BM_A", 25.0}, {"BM_NEW", 1.0}};
    check(compare(base, fresh, 3.0, false) == 1,
          "unbaselined benchmark fails the gate");
    check(compare(base, fresh, 3.0, true) == 0,
          "--allow-new blesses an unbaselined benchmark");
    check(compare(base, ok, 3.0, false) == 0,
          "retired benchmark (baseline-only) never gates");

    BenchMap detachBad{
        {"BM_EventQueueSchedule", 10.0},
        {"BM_EventQueueScheduleAfterListenerDetach", 25.0},
    };
    check(compare(detachBad, detachBad, 3.0, false) == 1,
          "detach pair beyond 2x fails");
    BenchMap detachOk{
        {"BM_EventQueueSchedule", 10.0},
        {"BM_EventQueueScheduleAfterListenerDetach", 11.0},
    };
    check(compare(detachOk, detachOk, 3.0, false) == 0,
          "detach pair within 2x passes");

    BenchMap empty;
    check(!parseGbench("{}", &empty, &error), "gbench parse error");
    check(!parseReport("{}", &empty, &error), "report parse error");

    check(spreadOf({3.0, 1.0, 2.0}).median == 2.0, "odd median");
    check(spreadOf({4.0, 1.0, 3.0, 2.0}).median == 2.5, "even median");
    check(spreadOf({4.0, 1.0, 3.0}).min == 1.0 &&
              spreadOf({4.0, 1.0, 3.0}).max == 4.0,
          "range");

    E2eReport e2eBase;
    e2eBase.cpuFeatures = "sse4.2 avx512f";
    e2eBase.runs["a --jobs 1"] = {0, {1.0, 0.9, 1.2}, {0.9, 0.8, 1.0},
                                  {100, 90, 110}};
    e2eBase.runs["b --jobs 4"] = {0, {0.5, 0.5, 0.5}, {}, {}};
    E2eReport e2eParsed;
    check(parseE2e(e2eReportText(e2eBase), &e2eParsed, &error),
          "e2e report parse");
    check(e2eReportText(e2eBase).find("\"rounds\": 3,") !=
              std::string::npos,
          "e2e report records its rounds");
    check(e2eParsed.cpuFeatures == "sse4.2 avx512f" &&
              e2eParsed.runs.size() == 2 &&
              e2eParsed.runs["a --jobs 1"].exit == 0 &&
              e2eParsed.runs["a --jobs 1"].wall.median == 1.0 &&
              e2eParsed.runs["b --jobs 4"].wall.median == 0.5,
          "e2e report round-trip values");
    E2eReport e2eOk = e2eBase;
    e2eOk.runs["a --jobs 1"].wall.median = 2.5;
    check(compareE2e(e2eBase, e2eOk) == 0, "e2e 2.5x passes at 3x");
    E2eReport e2eSlow = e2eBase;
    e2eSlow.runs["a --jobs 1"].wall.median = 3.2;
    check(compareE2e(e2eBase, e2eSlow) == 1, "e2e 3.2x fails at 3x");
    E2eReport e2eOtherHost = e2eSlow;
    e2eOtherHost.cpuFeatures = "sse4.2";
    check(compareE2e(e2eBase, e2eOtherHost) == 0,
          "e2e wall times on a host with other paths never gate");
    e2eOtherHost.runs["b --jobs 4"].exit = 1;
    check(compareE2e(e2eBase, e2eOtherHost) == 1,
          "e2e nonzero exit on a host with other paths fails");
    E2eReport e2eTiny;
    e2eTiny.runs["t --jobs 1"] = {0, {0.005, 0.004, 0.006}, {}, {}};
    E2eReport e2eTinySlow = e2eTiny;
    e2eTinySlow.runs["t --jobs 1"].wall.median = 0.05;
    check(compareE2e(e2eTiny, e2eTinySlow) == 0,
          "e2e start-up noise on a millisecond run passes");
    e2eTinySlow.runs["t --jobs 1"].wall.median = 0.2;
    check(compareE2e(e2eTiny, e2eTinySlow) == 1,
          "e2e a millisecond run past the slack fails");
    E2eReport e2eFailed = e2eBase;
    e2eFailed.runs["b --jobs 4"].exit = 1;
    check(compareE2e(e2eBase, e2eFailed) == 1,
          "e2e run that exits nonzero fails");
    E2eReport e2eAbsent = e2eBase;
    e2eAbsent.runs.erase("b --jobs 4");
    check(compareE2e(e2eBase, e2eAbsent) == 0,
          "e2e run absent from the current report never gates");
    E2eReport e2eNew = e2eBase;
    e2eNew.runs["c --jobs 1"] = {0, {0.1, 0.1, 0.1}, {}, {}};
    check(compareE2e(e2eBase, e2eNew) == 1,
          "e2e run missing from the baseline fails");
    e2eNew.cpuFeatures = "sse4.2";
    check(compareE2e(e2eBase, e2eNew) == 1,
          "e2e run missing from the baseline fails on any host");
    check(!parseE2e("{}", &e2eParsed, &error), "e2e parse error");

    if (failed == 0)
        std::printf("bench_report: self-test passed\n");
    return failed == 0 ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --from-gbench <gbench.json> --out <report.json>\n"
        "       %s --compare <baseline.json> <current.json>"
        " [--threshold <x>] [--allow-new]\n"
        "       %s --e2e <build-dir> --out <report.json>\n"
        "       %s --compare-e2e <baseline.json> <current.json>\n"
        "       %s --self-test\n",
        argv0, argv0, argv0, argv0, argv0);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string from_gbench, out, base_path, cur_path, e2e_build;
    double threshold = 3.0;
    bool do_compare = false, compare_e2e = false, self_test = false,
         allow_new = false, threshold_given = false;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--from-gbench") && i + 1 < argc) {
            from_gbench = argv[++i];
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else if (!std::strcmp(argv[i], "--compare") &&
                   i + 2 < argc) {
            do_compare = true;
            base_path = argv[++i];
            cur_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--threshold") &&
                   i + 1 < argc) {
            char *end = nullptr;
            threshold = std::strtod(argv[++i], &end);
            threshold_given = true;
            if (end == nullptr || *end != '\0' ||
                !(threshold > 0.0)) {
                std::fprintf(stderr,
                             "bench_report: bad --threshold\n");
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--compare-e2e") &&
                   i + 2 < argc) {
            compare_e2e = true;
            base_path = argv[++i];
            cur_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--e2e") && i + 1 < argc) {
            e2e_build = argv[++i];
        } else if (!std::strcmp(argv[i], "--allow-new")) {
            allow_new = true;
        } else if (!std::strcmp(argv[i], "--self-test")) {
            self_test = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (self_test)
        return selfTest();

    if (!from_gbench.empty()) {
        if (out.empty())
            return usage(argv[0]);
        std::string text, error;
        if (!readFile(from_gbench, &text)) {
            std::fprintf(stderr, "bench_report: cannot read %s\n",
                         from_gbench.c_str());
            return 2;
        }
        BenchMap benches;
        if (!parseGbench(text, &benches, &error)) {
            std::fprintf(stderr, "bench_report: %s: %s\n",
                         from_gbench.c_str(), error.c_str());
            return 2;
        }
        if (!writeReport(out, benches)) {
            std::fprintf(stderr, "bench_report: cannot write %s\n",
                         out.c_str());
            return 2;
        }
        std::printf("bench_report: wrote %zu benchmark(s) to %s\n",
                    benches.size(), out.c_str());
        return 0;
    }

    if (!e2e_build.empty()) {
        if (out.empty())
            return usage(argv[0]);
        E2eReport report;
        if (!measureE2e(e2e_build, &report))
            return 2;
        std::ofstream outf(out);
        outf << e2eReportText(report);
        if (!outf) {
            std::fprintf(stderr, "bench_report: cannot write %s\n",
                         out.c_str());
            return 2;
        }
        int failed = 0;
        for (const auto &[name, r] : report.runs)
            failed += r.exit != 0;
        std::printf("bench_report: wrote %zu run(s) to %s%s\n",
                    report.runs.size(), out.c_str(),
                    failed ? "; some exited nonzero" : "");
        return failed ? 1 : 0;
    }

    if (do_compare || compare_e2e) {
        std::string base_text, cur_text, error;
        if (!readFile(base_path, &base_text)) {
            std::fprintf(stderr, "bench_report: cannot read %s\n",
                         base_path.c_str());
            return 2;
        }
        if (!readFile(cur_path, &cur_text)) {
            std::fprintf(stderr, "bench_report: cannot read %s\n",
                         cur_path.c_str());
            return 2;
        }
        if (compare_e2e) {
            if (threshold_given || allow_new)
                return usage(argv[0]);
            E2eReport baseline, current;
            if (!parseE2e(base_text, &baseline, &error) ||
                !parseE2e(cur_text, &current, &error)) {
                std::fprintf(stderr, "bench_report: %s\n",
                             error.c_str());
                return 2;
            }
            return compareE2e(baseline, current);
        }
        BenchMap baseline, current;
        if (!parseReport(base_text, &baseline, &error)) {
            std::fprintf(stderr, "bench_report: %s: %s\n",
                         base_path.c_str(), error.c_str());
            return 2;
        }
        if (!parseReport(cur_text, &current, &error)) {
            std::fprintf(stderr, "bench_report: %s: %s\n",
                         cur_path.c_str(), error.c_str());
            return 2;
        }
        return compare(baseline, current, threshold, allow_new);
    }

    return usage(argv[0]);
}
