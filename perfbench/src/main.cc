/**
 * @file
 * The benchmark binary: one process that sets a workload up, repeats
 * rounds of its fixed simulated work for the measured time, checks
 * every round's outputs, and prints its metrics with the last line
 * one JSON object.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--golden-dir DIR] [--out-dir DIR] [--write-golden]
 *             [--spawn-ns NS] [--setup-only] [--prior-setups S,...]
 *   perfbench --list-metrics
 *
 * perfbench/run.py builds the binary and runs it; NOTES.md beside
 * it explains the workloads and metrics.
 */

#include <charconv>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "heap.hh"
#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Printed by untraced runs (--trace 0). */
constexpr MetricSpec endToEnd[] = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_heap_mb", "MB"},
};

/** Printed by traced runs (--trace 1); 0 where a layer does not run. */
constexpr MetricSpec perLayer[] = {
    {"workload.sim_minst", "Minst"},
    {"workload.make_ms", "ms"},
    {"kernel.system_new_ms.i7", "ms"},
    {"kernel.system_new_ms.xeon", "ms"},
    {"kernel.run_s", "s"},
    {"kernel.ctx_switches", "count"},
    {"hw.lookups.l1", "count"},
    {"hw.lookups.l2", "count"},
    {"hw.lookups.llc", "count"},
    {"hw.llc_miss_ratio", "ratio"},
    {"hw.ns_per_lookup", "ns"},
    {"hw.ns_per_lookup.i7", "ns"},
    {"hw.ns_per_lookup.xeon", "ns"},
    {"sim.events", "count"},
    {"sim.timer_ms", "ms"},
    {"kleb.attach_ms", "ms"},
    {"kleb.samples", "count"},
    {"kleb.dropped", "count"},
    {"kleb.collect_ms", "ms"},
    {"tools.attach_ms", "ms"},
    {"tools.trial_s.none", "s"},
    {"tools.trial_s.kleb", "s"},
    {"tools.trial_s.perf_stat", "s"},
    {"tools.trial_s.perf_record", "s"},
    {"tools.trial_s.papi", "s"},
    {"tools.trial_s.limit", "s"},
    {"fleet.simulate_s", "s"},
    {"fleet.simulate_parallelism", "ratio"},
    {"fleet.sort_ms", "ms"},
    {"fleet.collect_ms", "ms"},
    {"fleet.deliveries", "count"},
    {"fleet.replayed", "count"},
    {"fleet.journal_mb", "MB"},
    {"fleet.kept_frac", "ratio"},
    {"fault.injected", "count"},
    {"fault.machine_crashes", "count"},
    {"fault.link_drops", "count"},
    {"fault.link_delays", "count"},
    {"fault.collector_restarts", "count"},
    {"trace.overhead_frac", "ratio"},
};

/** Digests are recorded for, and checked at, this seed only. */
constexpr std::uint64_t goldenSeed = 42;

/** Fewest rounds (untraced) or round pairs (traced) a run makes. */
constexpr std::size_t minRounds = 3;
constexpr std::size_t minPairs = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = goldenSeed;
    double seconds = 10;
    int trace = 0;
    long long spawnNs = -1;
    bool setupOnly = false;
    std::vector<double> priorSetups;
    std::string goldenDir = "perfbench/golden";
    std::string outDir = ".bench_build/perfbench/out";
    bool writeGolden = false;
    bool listMetrics = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--golden-dir DIR] "
                 "[--out-dir DIR] [--write-golden] [--spawn-ns NS] "
                 "[--setup-only] [--prior-setups S,...]\n"
                 "       perfbench --list-metrics\n",
                 why.c_str());
    std::exit(2);
}

template <typename T>
T
parseNumber(const std::string &text, const char *flag)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        usage(std::string("bad value for ") + flag + ": '" + text + "'");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = parseNumber<std::uint64_t>(value(), "--seed");
        else if (flag == "--seconds")
            a.seconds = parseNumber<double>(value(), "--seconds");
        else if (flag == "--trace")
            a.trace = parseNumber<int>(value(), "--trace");
        else if (flag == "--spawn-ns")
            a.spawnNs = parseNumber<long long>(value(), "--spawn-ns");
        else if (flag == "--prior-setups") {
            std::stringstream list(value());
            for (std::string item; std::getline(list, item, ',');)
                a.priorSetups.push_back(
                    parseNumber<double>(item, "--prior-setups"));
        } else if (flag == "--golden-dir")
            a.goldenDir = value();
        else if (flag == "--out-dir")
            a.outDir = value();
        else if (flag == "--setup-only")
            a.setupOnly = true;
        else if (flag == "--write-golden")
            a.writeGolden = true;
        else if (flag == "--list-metrics")
            a.listMetrics = true;
        else
            usage("unknown argument '" + flag + "'");
    }
    if (a.listMetrics)
        return a;
    if (a.workload.empty())
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    if (a.writeGolden && a.seed != goldenSeed)
        usage("--write-golden records digests at seed 42 only");
    return a;
}

long long
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::string
compiler()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Operations attempted and failed over a run; reports the first. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    count(const Outcome &o, const char *round)
    {
        for (std::size_t op = 0; op < o.ops(); ++op)
            if (!o.failures[op].empty() && failed++ < 8)
                std::fprintf(stderr, "perfbench: FAILED %s op %zu: %s\n",
                             round, op, o.failures[op].c_str());
        attempted += o.ops();
    }
};

/** Checks shared by every round: recorded digests, then round 1. */
class DigestChecks
{
  public:
    explicit DigestChecks(std::optional<Golden> golden)
        : golden_(std::move(golden))
    {
    }

    void
    apply(Outcome &o)
    {
        if (golden_)
            checkDigests(o, *golden_, "the recorded seed-42 digests",
                         true);
        if (first_)
            checkDigests(o, *first_, "the first round", true);
        else
            first_ = o.asGolden();
    }

  private:
    std::optional<Golden> golden_;
    std::optional<Golden> first_;
};

std::string
metricJson(const std::string &name, double value, const char *unit)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"value\": %.12g, \"unit\": \"%s\"}",
                  value, unit);
    return "\"" + name + "\": " + buf;
}

std::string
numbers(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
        out += buf;
    }
    return out + "]";
}

/** "median (n=..., q1..q3)" for one repeated timing. */
void
printTiming(const char *name, const std::vector<double> &v,
            const char *unit)
{
    if (v.size() >= 2) {
        const std::vector<double> q = quantiles(v, 4);
        std::printf("%-14s %.6g %s  median of n=%zu (q1 %.6g, q3 %.6g)\n",
                    name, median(v), unit, v.size(), q[0], q[2]);
    } else {
        std::printf("%-14s %.6g %s  n=%zu\n", name, median(v), unit,
                    v.size());
    }
}

void
writeFile(const fs::path &path, const std::string &text)
{
    fs::create_directories(path.parent_path());
    std::ofstream(path) << text;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point mainStart = Clock::now();
    const Args args = parseArgs(argc, argv);
    if (args.listMetrics) {
        for (const MetricSpec &m : endToEnd)
            std::printf("end_to_end %s %s\n", m.name, m.unit);
        for (const MetricSpec &m : perLayer)
            std::printf("per_layer %s %s\n", m.name, m.unit);
        return 0;
    }
    klebsim::setLoggingQuiet(true);

    // ---- set-up: inputs from the seed and a warm-up round ----------
    std::unique_ptr<Workload> wl = makeWorkload(args.workload, args.seed);
    if (!wl)
        usage("unknown workload '" + args.workload + "'");
    const double setup =
        args.spawnNs >= 0
            ? static_cast<double>(monotonicNs() - args.spawnNs) * 1e-9
            : seconds(mainStart, Clock::now());
    if (args.setupOnly) {
        std::printf("setup_s %.9f\n", setup);
        return 0;
    }
    std::vector<double> setups = args.priorSetups;
    setups.push_back(setup);

    const fs::path goldenPath =
        fs::path(args.goldenDir) / (args.workload + ".txt");
    std::optional<Golden> golden;
    if (args.seed == goldenSeed && !args.writeGolden) {
        std::ifstream in(goldenPath);
        if (!in)
            usage("no recorded digests at " + goldenPath.string());
        std::stringstream text;
        text << in.rdbuf();
        try {
            golden = parseGolden(text.str());
        } catch (const std::exception &e) {
            usage(goldenPath.string() + ": " + e.what());
        }
    }

    char prov[512];
    std::snprintf(prov, sizeof prov,
                  "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                  "\"pool_width\": %u, \"nproc\": %u, "
                  "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                  args.workload.c_str(), (unsigned long long)args.seed,
                  args.trace, wl->poolWidth(),
                  std::thread::hardware_concurrency(), compiler().c_str(),
                  PERFBENCH_BUILD_TYPE);
    std::printf("provenance %s\n", prov);

    // ---- timed section -------------------------------------------
    DigestChecks checks(golden);
    Tally tally;
    std::vector<double> walls, cpus, tracedWalls;
    std::vector<Layers> layerRounds;
    Tracer tracer;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&] { return seconds(start, Clock::now()); };

    auto untracedRound = [&]() -> Outcome {
        const double cpu0 = processCpuSeconds();
        const Clock::time_point w0 = Clock::now();
        wl->run(nullptr);
        walls.push_back(seconds(w0, Clock::now()));
        cpus.push_back(processCpuSeconds() - cpu0);
        Outcome o = wl->verify(nullptr);
        checks.apply(o);
        return o;
    };

    if (args.trace == 0) {
        while (walls.size() < minRounds ||
               elapsed() + median(walls) <= args.seconds) {
            Outcome o = untracedRound();
            if (walls.size() == 1 && args.writeGolden) {
                writeFile(goldenPath,
                          formatGolden(o.asGolden(),
                                       "perfbench digests: workload " +
                                           args.workload + ", seed 42"));
                std::printf("recorded digests in %s\n",
                            goldenPath.string().c_str());
            }
            tally.count(o, "untraced round");
        }
    } else {
        // Untraced and traced rounds alternate, so host drift
        // touches both sides of trace.overhead_frac alike.
        while (tracedWalls.size() < minPairs ||
               elapsed() + median(walls) + median(tracedWalls) <=
                   args.seconds) {
            Outcome plain = untracedRound();
            tally.count(plain, "untraced round");

            const Clock::time_point w0 = Clock::now();
            wl->run(&tracer);
            tracedWalls.push_back(seconds(w0, Clock::now()));
            Layers layers;
            Outcome traced = wl->verify(&layers);
            layers["trace.overhead_frac"] =
                tracedWalls.back() / walls.back() - 1;
            checkDigests(traced, plain.asGolden(), "the untraced round",
                         false);
            layerRounds.push_back(std::move(layers));
            tally.count(traced, "traced round");
        }
    }

    // ---- report --------------------------------------------------
    std::vector<std::string> metrics;
    if (args.trace == 0) {
        printTiming("wall_s", walls, "s");
        printTiming("cpu_s", cpus, "s");
        printTiming("setup_s", setups, "s");
        std::printf("%-14s %.6g MB\n", "peak_heap_mb", peakHeapMb());
        const double values[] = {median(walls), median(cpus),
                                 median(setups), peakHeapMb()};
        for (std::size_t i = 0; i < std::size(endToEnd); ++i)
            metrics.push_back(metricJson(endToEnd[i].name, values[i],
                                         endToEnd[i].unit));
    } else {
        printTiming("untraced wall", walls, "s");
        printTiming("traced wall", tracedWalls, "s");
        for (const MetricSpec &m : perLayer) {
            std::vector<double> v;
            for (const Layers &l : layerRounds) {
                auto it = l.find(m.name);
                v.push_back(it == l.end() ? 0 : it->second);
            }
            const double value = median(v);
            std::printf("%-28s %.6g %s\n", m.name, value, m.unit);
            metrics.push_back(metricJson(m.name, value, m.unit));
        }
        const fs::path stem = fs::path(args.outDir) /
                              (args.workload + "-seed" +
                               std::to_string(args.seed));
        std::ostringstream chrome, table;
        tracer.writeChromeTrace(chrome);
        tracer.writeLayerTable(table);
        writeFile(stem.string() + ".trace.json", chrome.str());
        writeFile(stem.string() + ".layers.txt", table.str());
        std::printf("trace written to %s.trace.json\n",
                    stem.string().c_str());
    }
    for (const std::string &line : wl->notes())
        std::printf("%s\n", line.c_str());

    std::string metricsJson;
    for (const std::string &json : metrics) {
        if (!metricsJson.empty())
            metricsJson += ", ";
        metricsJson += json;
    }
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                  tally.failed == 0 ? "true" : "false", tally.attempted,
                  tally.failed);
    const std::string result =
        std::string(head) + "\"metrics\": {" + metricsJson + "}}";

    writeFile(fs::path(args.outDir) /
                  (args.workload + "-seed" + std::to_string(args.seed) +
                   "-trace" + std::to_string(args.trace) + ".json"),
              "{\"provenance\": " + std::string(prov) +
                  ", \"rounds\": {\"wall_s\": " + numbers(walls) +
                  ", \"cpu_s\": " + numbers(cpus) +
                  ", \"setup_s\": " + numbers(setups) +
                  ", \"traced_wall_s\": " + numbers(tracedWalls) +
                  "}, \"result\": " + result + "}\n");
    std::printf("%s\n", result.c_str());
    return 0;
}
