/**
 * @file
 * Spans for the benchmark's traced run.  A span records one call
 * into a layer's public function, timed from outside the program:
 * name, start, end, the span it ran under, and the operation
 * (trial or machine) it belongs to.  Spans stay in memory and are
 * written once, at exit, as Chrome trace-event JSON (Perfetto opens
 * it).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds between two clock readings. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Process CPU seconds (user + sys, every thread) so far. */
double processCpuSeconds();

struct Span
{
    std::string name;
    double start = 0; //!< seconds since the tracer's epoch
    double end = 0;
    int parent = -1;  //!< index of the enclosing span, -1 at top
    int op = -1;      //!< operation id, -1 for round-level spans
};

/**
 * Self time of spans[id]: its duration minus the union of its
 * children's intervals, each clipped to the parent.  Children may
 * overlap (work fanned out to pool workers); overlapping time is
 * subtracted once.
 */
double selfTime(const std::vector<Span> &spans, std::size_t id);

class Tracer
{
  public:
    Tracer();

    /** Open a span under the innermost open one; returns its id. */
    std::size_t open(std::string name, int op);

    /** Close span @p id (must be the innermost open span). */
    void close(std::size_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of spans named @p name from index @p from. */
    double total(std::string_view name, std::size_t from = 0) const;

    /**
     * Summed time in spans named @p name from index @p from, per
     * operation id in [0, ops).
     */
    std::vector<double> perOp(std::string_view name, std::size_t ops,
                              std::size_t from = 0) const;

    /**
     * Median over operations of each operation's summed time in
     * spans named @p name, from index @p from; 0 if none ran.
     */
    double perOpMedian(std::string_view name,
                       std::size_t from = 0) const;

    /** Chrome trace-event JSON: one complete ("X") event a span. */
    void writeChromeTrace(std::ostream &out) const;

    /**
     * Plain-text per-span-name table: calls, total and self
     * seconds (self = total minus the union of child spans).
     */
    void writeLayerTable(std::ostream &out) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span; a null tracer makes it free and inert. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, int op = -1)
        : tracer_(tracer)
    {
        if (tracer_)
            id_ = tracer_->open(std::move(name), op);
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::size_t id_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
