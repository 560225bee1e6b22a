/**
 * @file
 * The simulated lossy uplink between a machine and the collector.
 *
 * Each machine's stream crosses an independent link that adds a
 * fixed base latency plus bounded deterministic jitter, drops
 * records (fault link.drop), and delays records (fault link.delay).
 * All randomness comes from per-machine PCG32 streams forked per
 * fault point from the fleet's fault seed — mirroring the
 * FaultInjector's per-point stream discipline — so the delivery
 * schedule is a pure function of (seed, machine id, record index)
 * and byte-identical at any --jobs value.  Every draw happens for
 * every record whether or not the fault is enabled, so turning one
 * fault on never reshuffles another fault's schedule.
 */

#ifndef KLEBSIM_FLEET_LINK_HH
#define KLEBSIM_FLEET_LINK_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "machine.hh"
#include "wire.hh"

namespace klebsim::fleet
{

/** Link behavior (shared by every machine's uplink). */
struct LinkParams
{
    /** Fixed uplink latency every record pays. */
    Tick baseLatency = usToTicks(50);

    /** Upper bound on per-record deterministic jitter. */
    Tick jitterMax = usToTicks(20);

    /** Probability a record is dropped (fault link.drop). */
    double dropProb = 0.0;

    /** Probability a record is delayed (fault link.delay). */
    double delayProb = 0.0;

    /** Extra latency a delayed record suffers. */
    Tick delayBy = msToTicks(2);
};

/** What one machine's link transmission did. */
struct LinkStats
{
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t delayed = 0;
};

/**
 * Transmit @p machine's records over a link with @p params, seeded
 * from @p fault_seed, appending arrivals to @p deliveries (in
 * per-machine emission order; simulateMachines() sorts each
 * machine's run by deliveryBefore and runFleet() merges the runs).
 */
LinkStats transmit(const MachineOutput &machine,
                   const LinkParams &params,
                   std::uint64_t fault_seed,
                   std::vector<Delivery> *deliveries);

} // namespace klebsim::fleet

#endif // KLEBSIM_FLEET_LINK_HH
