/**
 * @file
 * Self-checks for the benchmark's own arithmetic: span self time,
 * the order statistics, the CPU-per-wall ratio, and digest checks
 * that turn a wrong recorded digest into failed operations.  Exits
 * nonzero on the first failure.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "report.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

int checks = 0;

void
expect(bool ok, const char *what, int line)
{
    ++checks;
    if (ok)
        return;
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    std::exit(1);
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

Span
span(const char *name, double start, double end, int parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

void
selfTimeWithOverlappingChildren()
{
    // A parent over [0, 10] whose children are pool workers: two
    // overlap ([1, 4] and [3, 6] cover 5 s together) and one runs
    // past the parent's end ([8, 12] counts only up to 10).  The
    // grandchild sits inside a child and must not be subtracted
    // again from the parent.
    const std::vector<Span> spans = {
        span("round", 0, 10, -1),  span("worker", 1, 4, 0),
        span("worker", 3, 6, 0),   span("worker", 8, 12, 0),
        span("inner", 1.5, 2, 1),
    };
    EXPECT(near(selfTime(spans, 0), 3.0));
    EXPECT(near(selfTime(spans, 1), 2.5));
    EXPECT(near(selfTime(spans, 4), 0.5));

    // Nested children on one thread: self time is the gaps.
    const std::vector<Span> nested = {
        span("trial", 0, 1, -1), span("run", 0.25, 0.75, 0)};
    EXPECT(near(selfTime(nested, 0), 0.5));
}

void
tracerTotals()
{
    Tracer t;
    {
        ScopedSpan a(&t, "kernel.run", 0);
        ScopedSpan b(&t, "inner", 0);
    }
    {
        ScopedSpan c(&t, "kernel.run", 1);
    }
    EXPECT(t.spans().size() == 3);
    EXPECT(t.spans()[1].parent == 0);
    EXPECT(t.spans()[2].parent == -1);
    const std::vector<double> per_op = t.perOp("kernel.run", 2);
    EXPECT(near(per_op[0] + per_op[1], t.total("kernel.run")));
    EXPECT(t.total("absent") == 0 && t.perOpMedian("absent") == 0);
    ScopedSpan inert(nullptr, "ignored");
    EXPECT(t.spans().size() == 3);
}

void
orderStatistics()
{
    EXPECT(median({}) == 0);
    EXPECT(median({3, 1, 2}) == 2);
    EXPECT(median({4, 1, 3, 2}) == 2.5);

    // Reference values from Python's statistics.quantiles(v, n=4).
    std::vector<double> q = quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4);
    EXPECT(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
    q = quantiles({3, 1}, 4);
    EXPECT(near(q[0], 0.5) && near(q[1], 2.0) && near(q[2], 3.5));
    q = quantiles({5, 1, 4, 2, 3}, 4);
    EXPECT(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5));
    q = quantiles({0.91, 0.95, 1.02, 0.99, 1.10, 0.97, 1.01}, 4);
    EXPECT(near(q[0], 0.95) && near(q[1], 0.99) && near(q[2], 1.02));

    bool threw = false;
    try {
        quantiles({1}, 4);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    EXPECT(threw);
}

void
parallelismRatio()
{
    // Two workers busy for the whole 1.5 s span.
    EXPECT(near(parallelism(3.0, 1.5), 2.0));
    // One worker busy, the other idle half the time.
    EXPECT(near(parallelism(2.25, 1.5), 1.5));
    EXPECT(parallelism(1.0, 0) == 0);
}

/** Four machines: one digest over all of them, one per machine. */
Outcome
fleetLike()
{
    Outcome o(4);
    o.add("fleet.csv", digestOf("csv"), 0, 4);
    for (int m = 0; m < 4; ++m)
        o.add("ledger.m" + std::to_string(m),
              digestOf("ledger " + std::to_string(m)), m, m + 1);
    return o;
}

void
wrongGoldenDigestFailsOperations()
{
    const Golden right = fleetLike().asGolden();

    Outcome ok = fleetLike();
    checkDigests(ok, right, "golden", true);
    EXPECT(ok.failed() == 0);

    // A wrong per-machine digest fails that machine only.
    Golden wrong = right;
    wrong["ledger.m2"] ^= 1;
    Outcome one = fleetLike();
    checkDigests(one, wrong, "golden", true);
    EXPECT(one.failed() == 1 && !one.failures[2].empty());

    // A wrong digest over every machine fails them all.
    wrong = right;
    wrong["fleet.csv"] ^= 1;
    Outcome all = fleetLike();
    checkDigests(all, wrong, "golden", true);
    EXPECT(all.failed() == 4);

    // An expected digest the run did not produce fails everything
    // when matching exactly, and is ignored when comparing subsets.
    wrong = right;
    wrong["ledger.m4"] = 7;
    Outcome missing = fleetLike();
    checkDigests(missing, wrong, "golden", true);
    EXPECT(missing.failed() == 4);
    Outcome subset = fleetLike();
    checkDigests(subset, wrong, "golden", false);
    EXPECT(subset.failed() == 0);

    // The recorded format round-trips; a malformed line is refused.
    EXPECT(parseGolden(formatGolden(right, "header")) == right);
    bool threw = false;
    try {
        parseGolden("ledger.m0\n");
    } catch (const std::runtime_error &) {
        threw = true;
    }
    EXPECT(threw);

    // The first failure reason given is kept.
    Outcome reasons(1);
    reasons.fail(0, "first");
    reasons.fail(0, "second");
    EXPECT(reasons.failures[0] == "first");
}

} // namespace

int
main()
{
    selfTimeWithOverlappingChildren();
    tracerTotals();
    orderStatistics();
    parallelismRatio();
    wrongGoldenDigestFailsOperations();
    std::printf("perfbench selftest: %d checks passed\n", checks);
    return 0;
}
