/**
 * @file
 * The benchmark's own arithmetic and output checks: order
 * statistics, the CPU-per-wall ratio, output digests, and the
 * per-operation failure ledger that digests and paper claims feed.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> v);

/**
 * The n-1 cut points that split @p v into @p n equal groups,
 * computed as Python's statistics.quantiles(v, n=n) does (its
 * default "exclusive" method).  Needs at least two values.
 */
std::vector<double> quantiles(std::vector<double> v, int n);

/** Host CPU seconds per wall second; 0 for an empty interval. */
double parallelism(double cpu_s, double wall_s);

/** FNV-1a 64-bit digest of @p text. */
std::uint64_t digestOf(std::string_view text);

/** A digest that vouches for operations [first, last). */
struct Digest
{
    std::string key;
    std::uint64_t value = 0;
    std::size_t first = 0;
    std::size_t last = 0;
};

/** Expected digests by key. */
using Golden = std::map<std::string, std::uint64_t>;

/**
 * One round's operations (trials or machines), the reason each
 * failed (empty while it has not), and the digests over them.
 */
struct Outcome
{
    std::vector<std::string> failures;
    std::vector<Digest> digests;

    explicit Outcome(std::size_t ops = 0) : failures(ops) {}

    std::size_t ops() const { return failures.size(); }

    /** Fail operation @p op; the first reason given is kept. */
    void fail(std::size_t op, const std::string &why);

    /** Fail every operation. */
    void failAll(const std::string &why);

    std::size_t failed() const;

    /** Record digest @p value over operations [first, last). */
    void add(std::string key, std::uint64_t value, std::size_t first,
             std::size_t last);

    /** This round's digests as an expectation for another run. */
    Golden asGolden() const;
};

/**
 * Fail every operation covered by a digest that disagrees with
 * @p expected.  With @p exact, a digest missing from @p expected is
 * a disagreement too, and an expected key no digest produced fails
 * every operation; otherwise only keys present on both sides are
 * compared.  @p against names the expectation in failure reasons.
 */
void checkDigests(Outcome &outcome, const Golden &expected,
                  const std::string &against, bool exact);

/** Parse "key hex" lines ('#' starts a comment). */
Golden parseGolden(std::string_view text);

/** Render @p g in the format parseGolden() reads. */
std::string formatGolden(const Golden &g, const std::string &header);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
