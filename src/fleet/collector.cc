#include "collector.hh"

#include <algorithm>

#include "base/logging.hh"
#include "fault/fault_plan.hh"
#include "kleb/log_recovery.hh"

namespace klebsim::fleet
{

namespace
{

constexpr std::uint64_t checkpointMagic =
    0x3150434854464c4bULL; // "KLFTHCP1"

void
putWord(std::vector<std::uint8_t> *out, std::uint64_t w)
{
    for (int b = 0; b < 8; ++b)
        out->push_back(static_cast<std::uint8_t>(w >> (8 * b)));
}

bool
getWord(const std::vector<std::uint8_t> &bytes, std::size_t *at,
        std::uint64_t *out)
{
    if (bytes.size() - *at < 8)
        return false;
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b)
        w |= static_cast<std::uint64_t>(bytes[*at + b]) << (8 * b);
    *at += 8;
    *out = w;
    return true;
}

} // anonymous namespace

Collector::Collector(const CollectorConfig &cfg)
    : cfg_(cfg),
      tree_(cfg.machines, cfg.coresPerMachine, cfg.rackSize),
      peers_(cfg.machines)
{
    for (PeerState &p : peers_) {
        p.lastTs.assign(cfg.coresPerMachine, 0);
        p.lastCounts.assign(cfg.coresPerMachine, {});
    }
    journal_.beginEpoch(0);
}

Tick
Collector::quarantineAfter() const
{
    // Probe i (1-based) goes out after H*(2^i - 1) of silence; the
    // budget exhausts — and the machine is quarantined — one more
    // doubling after the last probe.
    return cfg_.heartbeatTimeout *
           ((Tick{1} << (cfg_.probeBudget + 1)) - 1);
}

void
Collector::ingest(const std::vector<Delivery> &deliveries)
{
    if (checkpointEvery_ == 0) {
        // Auto-scale the checkpoint cadence off the first batch so
        // a run takes a handful of checkpoints regardless of fleet
        // size.  Pure function of the stream, so jobs-invariant.
        checkpointEvery_ =
            cfg_.checkpointEvery
                ? cfg_.checkpointEvery
                : std::max<std::uint64_t>(4096,
                                          deliveries.size() / 4);
    }
    // Size the journal once for the batch: a frame per delivery,
    // plus the epoch frame each checkpoint opens.
    journal_.reserveFrames(deliveries.size() +
                           deliveries.size() / checkpointEvery_ + 1);
    for (const Delivery &d : deliveries)
        service(d);
}

void
Collector::service(const Delivery &d)
{
    const Tick start = std::max(d.arrival, ops_.drainClock);
    const Tick lag = start - d.arrival;
    if (lag > ops_.maxLag)
        ops_.maxLag = lag;
    if (lag > cfg_.backpressureLag)
        ++ops_.backpressureEvents;
    ops_.drainClock = start + cfg_.drainCost;

    if (cfg_.crashAt != 0 && !crashed_ &&
        ops_.drainClock >= cfg_.crashAt)
        crashAndRestart();

    // Write-ahead: the record hits the journal before any decision
    // is made about it, so a post-crash replay re-decides every
    // disposition (kept / reordered / quarantined) with the exact
    // peer state the first incarnation had.
    journalRecord(d.rec, d.arrival);
    apply(d.rec, d.arrival, false);

    if (journal_.samplesAppended() % checkpointEvery_ == 0)
        checkpoint();
}

void
Collector::journalRecord(const WireRecord &rec, Tick arrival)
{
    kleb::Sample s;
    s.timestamp = arrival; // arrivals are monotone; rec.ts is not
    s.cause = rec.final ? kleb::SampleCause::final
                        : kleb::SampleCause::timer;
    s.numEvents = kleb::maxSampleEvents;
    for (std::size_t e = 0; e < numWireEvents; ++e)
        s.counts[e] = rec.counts[e];
    s.counts[3] = rec.machine;
    s.counts[4] = static_cast<std::uint64_t>(rec.core) |
                  (static_cast<std::uint64_t>(rec.epoch) << 32);
    s.counts[5] = rec.ts;
    s.counts[6] = rec.seq;
    journal_.append(s);
}

void
Collector::apply(const WireRecord &rec, Tick arrival,
                 bool replaying)
{
    (void)replaying;
    panic_if(rec.machine >= peers_.size(),
             "delivery from a machine outside the fleet");
    PeerState &p = peers_[rec.machine];

    if (p.quarantined) {
        ++p.lateDiscarded;
        return;
    }

    if (p.seen) {
        const Tick silent = arrival - p.lastArrival;
        if (silent > quarantineAfter()) {
            // Every probe went unanswered before this record showed
            // up: the machine was already written off, and a
            // too-late arrival cannot resurrect it (that would make
            // the aggregate depend on straggler timing).
            quarantine(rec.machine, arrival, "silence");
            ++p.lateDiscarded;
            return;
        }
        if (silent > cfg_.heartbeatTimeout) {
            ++p.stragglers;
            for (int i = 1; i <= cfg_.probeBudget; ++i)
                if (silent >= cfg_.heartbeatTimeout *
                                  ((Tick{1} << i) - 1))
                    ++p.probes;
        }
    } else {
        p.firstArrival = arrival;
    }
    p.seen = true;
    p.lastArrival = arrival;

    Tick &last_ts = p.lastTs[rec.core];
    auto &last_counts = p.lastCounts[rec.core];

    // A record whose machine-side time or cumulative counts run
    // backwards was reordered on the link; the next in-order record
    // carries the hole in its delta, so merging this one would
    // double-count.
    bool stale = last_ts != 0 && rec.ts <= last_ts;
    for (std::size_t e = 0; e < numWireEvents && !stale; ++e)
        stale = rec.counts[e] < last_counts[e];
    if (stale) {
        ++p.reordered;
        return;
    }

    const std::uint64_t d_inst = rec.counts[0] - last_counts[0];
    const std::uint64_t d_cycles = rec.counts[1] - last_counts[1];
    const std::uint64_t d_llc = rec.counts[2] - last_counts[2];
    if (d_cycles > 0) {
        const double ipc = static_cast<double>(d_inst) /
                           static_cast<double>(d_cycles);
        const double mpki =
            d_inst > 0 ? static_cast<double>(d_llc) * 1000.0 /
                             static_cast<double>(d_inst)
                       : 0.0;
        tree_.observe(rec.machine, rec.core, ipc, mpki);
    }
    ++p.kept;
    last_ts = rec.ts;
    last_counts = rec.counts;
    if (rec.final)
        ++p.finals;
}

void
Collector::quarantine(MachineId m, Tick until, const char *cause)
{
    PeerState &p = peers_[m];
    p.quarantined = true;
    p.probes = cfg_.probeBudget;
    FleetHole hole;
    hole.machine = m;
    hole.from = p.seen ? p.lastArrival : 0;
    hole.to = until;
    hole.probes = p.probes;
    hole.cause = cause;
    holes_.push_back(std::move(hole));
}

void
Collector::finish(Tick end_of_stream)
{
    for (MachineId m = 0; m < peers_.size(); ++m) {
        PeerState &p = peers_[m];
        if (p.quarantined)
            continue;
        if (p.seen && p.finals >= cfg_.coresPerMachine)
            continue; // clean shutdown on every core
        if (!p.seen) {
            // Not one record all run: the machine (or its shard's
            // simulation) never came up.
            quarantine(m, end_of_stream, "silence");
            continue;
        }
        if (end_of_stream - p.lastArrival > quarantineAfter())
            quarantine(m, end_of_stream, "silence");
    }
}

CollectorStats
Collector::stats() const
{
    CollectorStats s = ops_;
    for (const PeerState &p : peers_) {
        s.accepted += p.kept;
        s.reordered += p.reordered;
        s.quarantinedRecords += p.lateDiscarded;
        s.probesSent += static_cast<std::uint64_t>(p.probes);
        s.stragglerEvents += p.stragglers;
        if (p.quarantined)
            ++s.quarantinedMachines;
    }
    return s;
}

void
Collector::encodePeers(std::vector<std::uint8_t> *out) const
{
    putWord(out, peers_.size());
    for (const PeerState &p : peers_) {
        putWord(out, (p.seen ? 1u : 0u) |
                         (p.quarantined ? 2u : 0u));
        putWord(out, p.firstArrival);
        putWord(out, p.lastArrival);
        putWord(out, static_cast<std::uint64_t>(p.probes));
        putWord(out, p.finals);
        putWord(out, p.kept);
        putWord(out, p.reordered);
        putWord(out, p.lateDiscarded);
        putWord(out, p.stragglers);
        for (std::uint32_t c = 0; c < cfg_.coresPerMachine; ++c) {
            putWord(out, p.lastTs[c]);
            for (std::size_t e = 0; e < numWireEvents; ++e)
                putWord(out, p.lastCounts[c][e]);
        }
    }
    putWord(out, holes_.size());
    for (const FleetHole &h : holes_) {
        putWord(out, h.machine);
        putWord(out, h.from);
        putWord(out, h.to);
        putWord(out, static_cast<std::uint64_t>(h.probes));
        putWord(out, h.cause.size());
        out->insert(out->end(), h.cause.begin(), h.cause.end());
    }
}

bool
Collector::decodePeers(const std::vector<std::uint8_t> &bytes,
                       std::size_t *at)
{
    std::uint64_t count = 0;
    if (!getWord(bytes, at, &count) || count != peers_.size())
        return false;
    for (PeerState &p : peers_) {
        std::uint64_t flags = 0, probes = 0, finals = 0;
        if (!getWord(bytes, at, &flags) ||
            !getWord(bytes, at, &p.firstArrival) ||
            !getWord(bytes, at, &p.lastArrival) ||
            !getWord(bytes, at, &probes) ||
            !getWord(bytes, at, &finals) ||
            !getWord(bytes, at, &p.kept) ||
            !getWord(bytes, at, &p.reordered) ||
            !getWord(bytes, at, &p.lateDiscarded) ||
            !getWord(bytes, at, &p.stragglers))
            return false;
        p.seen = flags & 1;
        p.quarantined = flags & 2;
        p.probes = static_cast<int>(probes);
        p.finals = static_cast<std::uint32_t>(finals);
        for (std::uint32_t c = 0; c < cfg_.coresPerMachine; ++c) {
            if (!getWord(bytes, at, &p.lastTs[c]))
                return false;
            for (std::size_t e = 0; e < numWireEvents; ++e)
                if (!getWord(bytes, at, &p.lastCounts[c][e]))
                    return false;
        }
    }
    std::uint64_t hole_count = 0;
    if (!getWord(bytes, at, &hole_count))
        return false;
    holes_.clear();
    for (std::uint64_t i = 0; i < hole_count; ++i) {
        FleetHole h;
        std::uint64_t machine = 0, probes = 0, len = 0;
        if (!getWord(bytes, at, &machine) ||
            !getWord(bytes, at, &h.from) ||
            !getWord(bytes, at, &h.to) ||
            !getWord(bytes, at, &probes) ||
            !getWord(bytes, at, &len) ||
            bytes.size() - *at < len)
            return false;
        h.machine = static_cast<MachineId>(machine);
        h.probes = static_cast<int>(probes);
        h.cause.assign(bytes.begin() + *at,
                       bytes.begin() + *at + len);
        *at += len;
        holes_.push_back(std::move(h));
    }
    return true;
}

void
Collector::checkpoint()
{
    std::vector<std::uint8_t> bytes;
    putWord(&bytes, checkpointMagic);
    putWord(&bytes, journal_.samplesAppended());

    std::vector<std::uint8_t> tree_bytes;
    tree_.encode(&tree_bytes);
    putWord(&bytes, tree_bytes.size());
    bytes.insert(bytes.end(), tree_bytes.begin(),
                 tree_bytes.end());

    encodePeers(&bytes);
    putWord(&bytes, kleb::crc32c(bytes.data(), bytes.size()));

    checkpointBytes_ = std::move(bytes);
    checkpointCut_ = journal_.samplesAppended();
    ++ops_.checkpoints;

    // A fresh journal epoch marks the cut: epochs-opened in the
    // journal header always equals checkpoints + 1.
    journal_.beginEpoch(ops_.drainClock);
}

void
Collector::crashAndRestart()
{
    crashed_ = true;
    ++ops_.restarts;

    // Everything in RAM dies with the process (the journal and the
    // checkpoint live on durable media).
    tree_ = MonitorTree(cfg_.machines, cfg_.coresPerMachine,
                        cfg_.rackSize);
    for (PeerState &p : peers_) {
        p = PeerState{};
        p.lastTs.assign(cfg_.coresPerMachine, 0);
        p.lastCounts.assign(cfg_.coresPerMachine, {});
    }
    holes_.clear();

    std::uint64_t cut = 0;
    if (!checkpointBytes_.empty()) {
        const std::vector<std::uint8_t> &b = checkpointBytes_;
        fatal_if(b.size() < 8 ||
                     kleb::crc32c(b.data(), b.size() - 8) !=
                         (b[b.size() - 8] |
                          std::uint32_t{b[b.size() - 7]} << 8 |
                          std::uint32_t{b[b.size() - 6]} << 16 |
                          std::uint32_t{b[b.size() - 5]} << 24),
                 "collector checkpoint failed its CRC");
        std::size_t at = 0;
        std::uint64_t magic = 0, tree_len = 0;
        fatal_if(!getWord(b, &at, &magic) ||
                     magic != checkpointMagic ||
                     !getWord(b, &at, &cut) ||
                     !getWord(b, &at, &tree_len) ||
                     b.size() - at < tree_len,
                 "collector checkpoint header is malformed");
        std::vector<std::uint8_t> tree_bytes(
            b.begin() + at, b.begin() + at + tree_len);
        at += tree_len;
        fatal_if(!tree_.decode(tree_bytes),
                 "collector checkpoint tree section is malformed");
        fatal_if(!decodePeers(b, &at),
                 "collector checkpoint peer section is malformed");
    }

    // Replay the journal tail through the standard recovery path:
    // the same scan that rebuilds a machine's session log rebuilds
    // the collector's delivery stream.
    kleb::RecoveredLog rl = kleb::LogRecovery::scan(journal_.bytes());
    fatal_if(!rl.report.valid,
             "collector journal lost its header");
    for (std::size_t i = cut; i < rl.samples.size(); ++i) {
        const kleb::Sample &s = rl.samples[i];
        WireRecord rec;
        rec.machine =
            static_cast<MachineId>(s.counts[3]);
        rec.core = static_cast<std::uint16_t>(s.counts[4]);
        rec.epoch =
            static_cast<std::uint32_t>(s.counts[4] >> 32);
        rec.ts = s.counts[5];
        rec.seq = s.counts[6];
        rec.final = s.cause == kleb::SampleCause::final;
        for (std::size_t e = 0; e < numWireEvents; ++e)
            rec.counts[e] = s.counts[e];
        apply(rec, s.timestamp, true);
        ++ops_.replayedRecords;
    }

    // Keep the lint's coverage honest: this is the layer the
    // collector.crash fault point drives.
    static_assert(static_cast<int>(
                      fault::FaultPoint::collectorCrash) >= 0);
}

} // namespace klebsim::fleet
