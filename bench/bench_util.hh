/**
 * @file
 * Shared helpers for the experiment benches: command-line options,
 * parallel trial execution, paper-style table rendering, and CSV
 * emission.
 *
 * Every bench accepts:
 *   --runs N     repetitions per configuration (default varies)
 *   --jobs N     worker threads for independent trials (default:
 *                all host cores); any value yields byte-identical
 *                output
 *   --quick      reduced problem sizes / repetitions (CI-friendly)
 *   --csv        emit machine-readable CSV after the tables
 */

#ifndef KLEBSIM_BENCH_BENCH_UTIL_HH
#define KLEBSIM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/str.hh"
#include "bench_support/trial_pool.hh"

namespace klebsim::bench
{

/** Parsed common options. */
struct BenchArgs
{
    int runs = 0;      //!< 0 = bench default
    unsigned jobs = 0; //!< resolved to a positive count by parse()
    bool quick = false;
    bool csv = false;

    [[noreturn]] static void
    usageExit(const char *prog)
    {
        std::fprintf(stderr,
                     "usage: %s [--runs N] [--jobs N] [--quick] "
                     "[--csv]\n",
                     prog);
        std::exit(2);
    }

    /**
     * Strict positive-integer parse: the whole token must be
     * numeric and the value > 0.  "abc", "-5", "0", "3x" and
     * out-of-range values all take the usage/exit-2 path, the same
     * as an unknown flag — never a silent fallback to the default.
     */
    static int
    parsePositive(const char *text, const char *prog)
    {
        int value = 0;
        const char *end = text + std::strlen(text);
        auto [ptr, ec] = std::from_chars(text, end, value);
        if (ec != std::errc() || ptr != end || value <= 0)
            usageExit(prog);
        return value;
    }

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--quick")) {
                args.quick = true;
            } else if (!std::strcmp(argv[i], "--csv")) {
                args.csv = true;
            } else if (!std::strcmp(argv[i], "--runs") &&
                       i + 1 < argc) {
                args.runs = parsePositive(argv[++i], argv[0]);
            } else if (!std::strcmp(argv[i], "--jobs") &&
                       i + 1 < argc) {
                args.jobs = static_cast<unsigned>(
                    parsePositive(argv[++i], argv[0]));
            } else {
                usageExit(argv[0]);
            }
        }
        if (args.jobs == 0)
            args.jobs = TrialPool::defaultJobs();
        return args;
    }

    int
    runsOr(int dflt) const
    {
        return runs > 0 ? runs : dflt;
    }
};

/**
 * Run @p count independent trials of @p fn through a TrialPool of
 * @p jobs workers and return the results in trial order.  Every
 * bench's trial loop goes through here; a trial must build its own
 * simulated machine, derive any seed via trialSeed() from its index
 * (never from execution order), and do no printing — rendering
 * happens after all trials committed, so output is byte-identical
 * for every jobs value.
 */
template <typename Fn>
auto
runTrials(unsigned jobs, std::size_t count, Fn &&fn)
{
    TrialPool pool(jobs);
    return pool.map(count, std::forward<Fn>(fn));
}

/** Fixed-width text table, printed like the paper's tables. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> widths(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            widths[c] = headers_[c].size();
        for (const auto &row : rows_)
            for (std::size_t c = 0;
                 c < row.size() && c < widths.size(); ++c)
                widths[c] = std::max(widths[c], row[c].size());

        auto print_row = [&](const std::vector<std::string> &row) {
            std::printf("|");
            for (std::size_t c = 0; c < widths.size(); ++c) {
                std::string cell =
                    c < row.size() ? row[c] : std::string();
                std::printf(" %s |",
                            padRight(cell, widths[c]).c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        std::printf("|");
        for (std::size_t c = 0; c < widths.size(); ++c)
            std::printf("%s|",
                        std::string(widths[c] + 2, '-').c_str());
        std::printf("\n");
        for (const auto &row : rows_)
            print_row(row);
    }

    void
    printCsv() const
    {
        std::printf("%s\n", join(headers_, ",").c_str());
        for (const auto &row : rows_)
            std::printf("%s\n", join(row, ",").c_str());
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * @p v drawn as @p cols glyphs: each column sums its share of the
 * samples, on a ten-step scale against the fullest column (at
 * least 1).
 */
inline std::string
sparkline(const std::vector<double> &v, std::size_t cols)
{
    std::vector<double> bucket(cols, 0.0);
    double peak = 1.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        double &b = bucket[i * cols / v.size()];
        b += v[i];
        peak = std::max(peak, b);
    }
    static const char *glyphs = " .:-=+*#%@";
    std::string line;
    for (double b : bucket)
        line += glyphs[static_cast<int>(b / peak * 9.0)];
    return line;
}

/** Banner for a bench section. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace klebsim::bench

#endif // KLEBSIM_BENCH_BENCH_UTIL_HH
