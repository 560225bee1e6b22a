/**
 * @file
 * The benchmark's workloads.  Each runs a fixed amount of simulated
 * work (a round) through the program's public entry points; the
 * benchmark repeats rounds for the measured time.  Every trial builds
 * its own simulated machine, so modelled caches start empty.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "report.hh"
#include "trace.hh"

namespace perfbench
{

/** Per-layer metric values of one traced round, by metric name. */
using Layers = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Worker threads the round runs on; fixed per workload. */
    virtual unsigned poolWidth() const = 0;

    /**
     * One round.  With a tracer, the calls that the program's
     * top-level entry points hide are made one level down, in the
     * same order, with spans around each.
     */
    virtual void run(Tracer *tracer) = 0;

    /**
     * Digests and paper-claim checks over the last run(); after a
     * traced run, also fills @p layers.
     */
    virtual Outcome verify(Layers *layers) = 0;

    /** Result lines printed beside the metrics. */
    virtual std::vector<std::string> notes() const { return {}; }
};

/**
 * Workload @p name with its inputs made from @p seed and its
 * set-up done: input generation and one warm-up round at reduced
 * size.  Null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
