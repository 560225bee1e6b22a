#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <map>
#include <stdexcept>
#include <utility>

#include "report.hh"

namespace perfbench
{

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
selfTime(const std::vector<Span> &spans, std::size_t id)
{
    const Span &me = spans.at(id);
    std::vector<std::pair<double, double>> kids;
    for (const Span &s : spans) {
        if (s.parent != static_cast<int>(id))
            continue;
        double lo = std::max(s.start, me.start);
        double hi = std::min(s.end, me.end);
        if (hi > lo)
            kids.emplace_back(lo, hi);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto &[lo, hi] : kids) {
        if (open && lo <= run_hi) {
            run_hi = std::max(run_hi, hi);
            continue;
        }
        if (open)
            covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
    }
    if (open)
        covered += run_hi - run_lo;
    return (me.end - me.start) - covered;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::size_t
Tracer::open(std::string name, int op)
{
    Span s;
    s.name = std::move(name);
    s.start = seconds(epoch_, Clock::now());
    s.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    s.op = op;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::close(std::size_t id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[id].end = seconds(epoch_, Clock::now());
    stack_.pop_back();
}

double
Tracer::total(std::string_view name, std::size_t from) const
{
    double sum = 0;
    for (std::size_t i = from; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            sum += spans_[i].end - spans_[i].start;
    return sum;
}

std::vector<double>
Tracer::perOp(std::string_view name, std::size_t ops,
              std::size_t from) const
{
    std::vector<double> per_op(ops, 0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.name == name && s.op >= 0 &&
            static_cast<std::size_t>(s.op) < ops)
            per_op[static_cast<std::size_t>(s.op)] += s.end - s.start;
    }
    return per_op;
}

double
Tracer::perOpMedian(std::string_view name, std::size_t from) const
{
    std::map<int, double> per_op;
    for (std::size_t i = from; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            per_op[spans_[i].op] += spans_[i].end - spans_[i].start;
    std::vector<double> v;
    for (const auto &[op, secs] : per_op)
        v.push_back(secs);
    return median(v);
}

namespace
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        out << (i ? ",\n" : "") << "{\"name\":\"" << jsonEscape(s.name)
            << "\",\"ph\":\"X\"," << buf << ",\"args\":{\"span\":" << i
            << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
}

void
Tracer::writeLayerTable(std::ostream &out) const
{
    struct Row
    {
        std::size_t calls = 0;
        double total = 0, self = 0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[spans_[i].name];
        ++r.calls;
        r.total += spans_[i].end - spans_[i].start;
        r.self += selfTime(spans_, i);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-28s %8s %12s %12s\n", "span",
                  "calls", "total_s", "self_s");
    out << buf;
    for (const auto &[name, r] : rows) {
        std::snprintf(buf, sizeof buf, "%-28s %8zu %12.6f %12.6f\n",
                      name.c_str(), r.calls, r.total, r.self);
        out << buf;
    }
}

} // namespace perfbench
