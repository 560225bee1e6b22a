#include "report.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

std::vector<double>
quantiles(std::vector<double> v, int n)
{
    if (v.size() < 2 || n < 1)
        throw std::invalid_argument("quantiles needs two values");
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::vector<double> cuts;
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const double delta = static_cast<double>(i * m - j * n);
        cuts.push_back((v[j - 1] * (n - delta) + v[j] * delta) / n);
    }
    return cuts;
}

double
parallelism(double cpu_s, double wall_s)
{
    return wall_s > 0 ? cpu_s / wall_s : 0;
}

std::uint64_t
digestOf(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
Outcome::fail(std::size_t op, const std::string &why)
{
    if (failures.at(op).empty())
        failures[op] = why;
}

void
Outcome::failAll(const std::string &why)
{
    for (std::size_t op = 0; op < ops(); ++op)
        fail(op, why);
}

std::size_t
Outcome::failed() const
{
    return static_cast<std::size_t>(
        std::count_if(failures.begin(), failures.end(),
                      [](const std::string &f) { return !f.empty(); }));
}

void
Outcome::add(std::string key, std::uint64_t value, std::size_t first,
             std::size_t last)
{
    digests.push_back({std::move(key), value, first, last});
}

Golden
Outcome::asGolden() const
{
    Golden g;
    for (const Digest &d : digests)
        g[d.key] = d.value;
    return g;
}

void
checkDigests(Outcome &outcome, const Golden &expected,
             const std::string &against, bool exact)
{
    Golden seen;
    for (const Digest &d : outcome.digests) {
        seen[d.key] = d.value;
        auto it = expected.find(d.key);
        if (it == expected.end() && !exact)
            continue;
        if (it != expected.end() && it->second == d.value)
            continue;
        for (std::size_t op = d.first; op < d.last; ++op)
            outcome.fail(op, d.key + " digest differs from " + against);
    }
    if (!exact)
        return;
    for (const auto &[key, value] : expected)
        if (!seen.count(key))
            outcome.failAll(key + " expected by " + against +
                            " was not produced");
}

Golden
parseGolden(std::string_view text)
{
    Golden g;
    std::istringstream in{std::string(text)};
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, hex;
        if (!(fields >> key >> hex))
            throw std::runtime_error("bad golden line: " + line);
        g[key] = std::stoull(hex, nullptr, 16);
    }
    return g;
}

std::string
formatGolden(const Golden &g, const std::string &header)
{
    std::string out = "# " + header + "\n";
    char buf[32];
    for (const auto &[key, value] : g) {
        std::snprintf(buf, sizeof buf, " %016" PRIx64 "\n", value);
        out += key + buf;
    }
    return out;
}

} // namespace perfbench
