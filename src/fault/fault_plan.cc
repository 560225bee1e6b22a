#include "fault_plan.hh"

#include <algorithm>
#include <charconv>
#include <vector>

#include "base/str.hh"

namespace klebsim::fault
{

namespace
{

const char *const pointKeys[] = {
#define KLEB_FAULT_POINT(name, key) key,
#include "fault_points.def"
#undef KLEB_FAULT_POINT
};

const char *const pointNames[] = {
#define KLEB_FAULT_POINT(name, key) #name,
#include "fault_points.def"
#undef KLEB_FAULT_POINT
};

bool
parseDouble(const std::string &v, double *out)
{
    const char *first = v.data();
    const char *last = v.data() + v.size();
    auto [p, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && p == last;
}

bool
parseProb(const std::string &v, double *out)
{
    return parseDouble(v, out) && *out >= 0.0 && *out <= 1.0;
}

bool
parseInt(const std::string &v, int *out)
{
    const char *first = v.data();
    const char *last = v.data() + v.size();
    auto [p, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && p == last;
}

bool
parseU64(const std::string &v, std::uint64_t *out)
{
    const char *first = v.data();
    const char *last = v.data() + v.size();
    auto [p, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && p == last;
}

/** Parse "5ms" / "250us" / "1000" (bare ticks) into Ticks. */
bool
parseDuration(const std::string &v, Tick *out)
{
    double mag = 0.0;
    const char *first = v.data();
    const char *last = v.data() + v.size();
    auto [p, ec] = std::from_chars(first, last, mag);
    if (ec != std::errc() || mag < 0.0)
        return false;
    std::string suffix(p, last);
    double scale;
    if (suffix.empty())
        scale = 1.0;
    else if (suffix == "ns")
        scale = static_cast<double>(tickPerNs);
    else if (suffix == "us")
        scale = static_cast<double>(tickPerUs);
    else if (suffix == "ms")
        scale = static_cast<double>(tickPerMs);
    else if (suffix == "s")
        scale = static_cast<double>(tickPerSec);
    else
        return false;
    *out = static_cast<Tick>(mag * scale);
    return true;
}

/** Render a Tick with the largest exact unit suffix. */
std::string
durationStr(Tick t)
{
    if (t >= tickPerMs && t % tickPerMs == 0)
        return csprintf("%llums", (unsigned long long)(t / tickPerMs));
    if (t >= tickPerUs && t % tickPerUs == 0)
        return csprintf("%lluus", (unsigned long long)(t / tickPerUs));
    if (t >= tickPerNs && t % tickPerNs == 0)
        return csprintf("%lluns", (unsigned long long)(t / tickPerNs));
    return csprintf("%llu", (unsigned long long)t);
}

std::string
probStr(double p)
{
    return csprintf("%g", p);
}

/**
 * One "key=value" spec entry, concatenated left to right: GCC 12
 * reports a false -Wrestrict on `const char * + std::string`
 * temporaries.
 */
std::string
specEntry(FaultPoint point, const std::string &value)
{
    return std::string(faultPointKey(point)) + '=' + value;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Classic O(a*b) Levenshtein edit distance (keys are short). */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + cost});
            diag = up;
        }
    }
    return row[b.size()];
}

/**
 * The valid spec key closest (by edit distance) to @p key, for the
 * unknown-key diagnostic.  Covers every fault_points.def key plus
 * the auxiliary keys parse() accepts alongside them.
 */
std::string
nearestSpecKey(const std::string &key)
{
    static const char *const auxKeys[] = {
        "seed", "timer.spike.us", "reader.stall.p", "link.delay.by",
        "cpu.offline.core"};
    std::string best;
    std::size_t best_dist = ~std::size_t{0};
    auto consider = [&](const char *candidate) {
        std::size_t d = editDistance(key, candidate);
        if (d < best_dist) {
            best_dist = d;
            best = candidate;
        }
    };
    for (const char *k : pointKeys)
        consider(k);
    for (const char *k : auxKeys)
        consider(k);
    return best;
}

} // anonymous namespace

const char *
faultPointKey(FaultPoint point)
{
    return pointKeys[static_cast<int>(point)];
}

const char *
faultPointName(FaultPoint point)
{
    return pointNames[static_cast<int>(point)];
}

bool
FaultPlan::active() const
{
    return timerFaultsActive() || counterWidth != 0 ||
           chardevFaultsActive() || readerStallActive() ||
           moduleInitFails > 0 || targetCrashAt != 0 ||
           controllerCrashAt != 0 || controllerHangAt != 0 ||
           logTornTailBytes != 0 || logBitflips > 0 ||
           setPeriodFailProb > 0.0 || reprogramCrashNth > 0 ||
           hotplugActive() || taskMigrateEvery != 0 ||
           pmuContendProb > 0.0 ||
           machineCrashProb > 0.0 || linkFaultsActive() ||
           collectorCrashAt != 0;
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan *out,
                 std::string *error)
{
    FaultPlan plan;
    for (const std::string &token : split(spec, ';')) {
        // Trim surrounding whitespace so specs can be written
        // "a=1; b=2" as well as "a=1;b=2".
        std::size_t first = token.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        std::size_t last = token.find_last_not_of(" \t");
        std::string pair = token.substr(first, last - first + 1);

        std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail(error, csprintf("fault spec token '%s' is not "
                                        "key=value", pair.c_str()));
        std::string key = pair.substr(0, eq);
        std::string value = pair.substr(eq + 1);
        bool ok;
        if (key == "seed") {
            ok = parseU64(value, &plan.seed);
        } else if (key == faultPointKey(FaultPoint::timerMiss)) {
            ok = parseProb(value, &plan.timerMissProb);
        } else if (key == faultPointKey(FaultPoint::timerSpike)) {
            ok = parseProb(value, &plan.timerSpikeProb);
        } else if (key == "timer.spike.us") {
            double us = 0.0;
            ok = parseDouble(value, &us) && us > 0.0;
            if (ok)
                plan.timerSpikeLateness = usToTicks(us);
        } else if (key == faultPointKey(FaultPoint::counterWidth)) {
            ok = parseInt(value, &plan.counterWidth) &&
                 (plan.counterWidth == 0 ||
                  (plan.counterWidth >= 8 && plan.counterWidth <= 48));
        } else if (key == faultPointKey(FaultPoint::ioctlFail)) {
            ok = parseProb(value, &plan.ioctlFailProb);
        } else if (key == faultPointKey(FaultPoint::readFail)) {
            ok = parseProb(value, &plan.readFailProb);
        } else if (key == faultPointKey(FaultPoint::readerStall)) {
            ok = parseDuration(value, &plan.readerStall);
        } else if (key == "reader.stall.p") {
            ok = parseProb(value, &plan.readerStallProb);
        } else if (key == faultPointKey(FaultPoint::moduleInitFail)) {
            ok = parseInt(value, &plan.moduleInitFails) &&
                 plan.moduleInitFails >= 0;
        } else if (key == faultPointKey(FaultPoint::targetCrash)) {
            ok = parseDuration(value, &plan.targetCrashAt);
        } else if (key == faultPointKey(FaultPoint::controllerCrash)) {
            ok = parseDuration(value, &plan.controllerCrashAt);
        } else if (key == faultPointKey(FaultPoint::controllerHang)) {
            ok = parseDuration(value, &plan.controllerHangAt);
        } else if (key == faultPointKey(FaultPoint::logTornTail)) {
            ok = parseU64(value, &plan.logTornTailBytes);
        } else if (key == faultPointKey(FaultPoint::logBitflip)) {
            ok = parseInt(value, &plan.logBitflips) &&
                 plan.logBitflips >= 0;
        } else if (key == faultPointKey(FaultPoint::setPeriodFail)) {
            ok = parseProb(value, &plan.setPeriodFailProb);
        } else if (key == faultPointKey(FaultPoint::reprogramCrash)) {
            ok = parseInt(value, &plan.reprogramCrashNth) &&
                 plan.reprogramCrashNth >= 0;
        } else if (key == faultPointKey(FaultPoint::cpuOffline)) {
            ok = parseDuration(value, &plan.cpuOfflineAt);
        } else if (key == "cpu.offline.core") {
            ok = parseInt(value, &plan.cpuOfflineCore) &&
                 plan.cpuOfflineCore >= 0;
        } else if (key == faultPointKey(FaultPoint::cpuOnline)) {
            ok = parseDuration(value, &plan.cpuOnlineAt);
        } else if (key == faultPointKey(FaultPoint::taskMigrate)) {
            ok = parseDuration(value, &plan.taskMigrateEvery);
        } else if (key == faultPointKey(FaultPoint::pmuContend)) {
            ok = parseProb(value, &plan.pmuContendProb);
        } else if (key == faultPointKey(FaultPoint::machineCrash)) {
            ok = parseProb(value, &plan.machineCrashProb);
        } else if (key == faultPointKey(FaultPoint::linkDrop)) {
            ok = parseProb(value, &plan.linkDropProb);
        } else if (key == faultPointKey(FaultPoint::linkDelay)) {
            ok = parseProb(value, &plan.linkDelayProb);
        } else if (key == "link.delay.by") {
            ok = parseDuration(value, &plan.linkDelayBy) &&
                 plan.linkDelayBy > 0;
        } else if (key == faultPointKey(FaultPoint::collectorCrash)) {
            ok = parseDuration(value, &plan.collectorCrashAt);
        } else {
            return fail(error,
                        csprintf("unknown fault spec key '%s' "
                                 "(nearest valid key: '%s')",
                                 key.c_str(),
                                 nearestSpecKey(key).c_str()));
        }
        if (!ok)
            return fail(error, csprintf("bad value '%s' for fault spec "
                                        "key '%s'", value.c_str(),
                                        key.c_str()));
    }
    *out = plan;
    return true;
}

std::string
FaultPlan::str() const
{
    std::vector<std::string> parts;
    if (seed != 0)
        parts.push_back(csprintf("seed=%llu",
                                 (unsigned long long)seed));
    if (timerMissProb > 0.0)
        parts.push_back(specEntry(FaultPoint::timerMiss,
                                  probStr(timerMissProb)));
    if (timerSpikeProb > 0.0) {
        parts.push_back(specEntry(FaultPoint::timerSpike,
                                  probStr(timerSpikeProb)));
        parts.push_back("timer.spike.us=" +
                        probStr(ticksToUs(timerSpikeLateness)));
    }
    if (counterWidth != 0)
        parts.push_back(csprintf("%s=%d",
                                 faultPointKey(FaultPoint::counterWidth),
                                 counterWidth));
    if (ioctlFailProb > 0.0)
        parts.push_back(specEntry(FaultPoint::ioctlFail,
                                  probStr(ioctlFailProb)));
    if (readFailProb > 0.0)
        parts.push_back(specEntry(FaultPoint::readFail,
                                  probStr(readFailProb)));
    if (readerStall > 0) {
        parts.push_back(specEntry(FaultPoint::readerStall,
                                  durationStr(readerStall)));
        if (readerStallProb < 1.0)
            parts.push_back("reader.stall.p=" +
                            probStr(readerStallProb));
    }
    if (moduleInitFails > 0)
        parts.push_back(csprintf(
            "%s=%d", faultPointKey(FaultPoint::moduleInitFail),
            moduleInitFails));
    if (targetCrashAt != 0)
        parts.push_back(specEntry(FaultPoint::targetCrash,
                                  durationStr(targetCrashAt)));
    if (controllerCrashAt != 0)
        parts.push_back(specEntry(FaultPoint::controllerCrash,
                                  durationStr(controllerCrashAt)));
    if (controllerHangAt != 0)
        parts.push_back(specEntry(FaultPoint::controllerHang,
                                  durationStr(controllerHangAt)));
    if (logTornTailBytes != 0)
        parts.push_back(csprintf(
            "%s=%llu", faultPointKey(FaultPoint::logTornTail),
            (unsigned long long)logTornTailBytes));
    if (logBitflips > 0)
        parts.push_back(csprintf(
            "%s=%d", faultPointKey(FaultPoint::logBitflip),
            logBitflips));
    if (setPeriodFailProb > 0.0)
        parts.push_back(specEntry(FaultPoint::setPeriodFail,
                                  probStr(setPeriodFailProb)));
    if (reprogramCrashNth > 0)
        parts.push_back(csprintf(
            "%s=%d", faultPointKey(FaultPoint::reprogramCrash),
            reprogramCrashNth));
    if (cpuOfflineAt != 0) {
        parts.push_back(specEntry(FaultPoint::cpuOffline,
                                  durationStr(cpuOfflineAt)));
        if (cpuOfflineCore != 0)
            parts.push_back(csprintf("cpu.offline.core=%d",
                                     cpuOfflineCore));
    }
    if (cpuOnlineAt != 0)
        parts.push_back(specEntry(FaultPoint::cpuOnline,
                                  durationStr(cpuOnlineAt)));
    if (taskMigrateEvery != 0)
        parts.push_back(specEntry(FaultPoint::taskMigrate,
                                  durationStr(taskMigrateEvery)));
    if (pmuContendProb > 0.0)
        parts.push_back(specEntry(FaultPoint::pmuContend,
                                  probStr(pmuContendProb)));
    if (machineCrashProb > 0.0)
        parts.push_back(specEntry(FaultPoint::machineCrash,
                                  probStr(machineCrashProb)));
    if (linkDropProb > 0.0)
        parts.push_back(specEntry(FaultPoint::linkDrop,
                                  probStr(linkDropProb)));
    if (linkDelayProb > 0.0) {
        parts.push_back(specEntry(FaultPoint::linkDelay,
                                  probStr(linkDelayProb)));
        parts.push_back("link.delay.by=" +
                        durationStr(linkDelayBy));
    }
    if (collectorCrashAt != 0)
        parts.push_back(specEntry(FaultPoint::collectorCrash,
                                  durationStr(collectorCrashAt)));
    return join(parts, ";");
}

} // namespace klebsim::fault
