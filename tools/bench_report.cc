/**
 * @file
 * Substrate perf-report tool: converts google-benchmark JSON output
 * into the repo's compact `BENCH_substrate.json` format and compares
 * a fresh run against the checked-in baseline.
 *
 * Usage:
 *   bench_report --from-gbench <gbench.json> --out <report.json>
 *   bench_report --compare <baseline.json> <current.json>
 *                [--threshold <x>]
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
 * Both parsers are deliberately minimal: they handle the JSON these
 * two producers emit (string keys, numbers, flat-ish structure), not
 * arbitrary JSON.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

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
        "       %s --self-test\n",
        argv0, argv0, argv0);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string from_gbench, out, base_path, cur_path;
    double threshold = 3.0;
    bool do_compare = false, self_test = false, allow_new = false;

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
            if (end == nullptr || *end != '\0' ||
                !(threshold > 0.0)) {
                std::fprintf(stderr,
                             "bench_report: bad --threshold\n");
                return 2;
            }
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

    if (do_compare) {
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
