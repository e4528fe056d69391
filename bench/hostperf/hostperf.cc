#include "hostperf.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>

#include "obs/stats_json.h"
#include "sim/log.h"

namespace glsc {
namespace hostperf {

double
hostSeconds()
{
    // glsc-lint: allow(determinism-wallclock) reason=host-performance benchmark timer; its readings are reported as host metrics and never reach simulated time or SystemStats
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        return v.empty() ? Quartiles{} : Quartiles{v[0], v[0]};
    std::sort(v.begin(), v.end());
    // statistics.quantiles, method="exclusive": m = n + 1, cut i at
    // j = i*m // 4 clamped to [1, n-1], weight delta = i*m - 4j (which
    // extrapolates past the ends for tiny n, as Python does).
    const long long n = static_cast<long long>(v.size());
    const long long m = n + 1;
    auto cut = [&](long long i) {
        long long j = std::clamp(i * m / 4, 1LL, n - 1);
        long long delta = i * m - j * 4;
        auto at = [&](long long k) { return v[static_cast<std::size_t>(k)]; };
        return (at(j - 1) * static_cast<double>(4 - delta) +
                at(j) * static_cast<double>(delta)) /
               4.0;
    };
    return {cut(1), cut(3)};
}

int
SpanLog::begin(const std::string &name, int parent)
{
    double now = hostSeconds();
    return add(name, parent, now, now);
}

void
SpanLog::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end = hostSeconds();
}

int
SpanLog::add(const std::string &name, int parent, double start, double end)
{
    int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, parent, name, start, end});
    return id;
}

double
SpanLog::selfTime(int id) const
{
    const Span &s = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> kids;
    for (const Span &c : spans_) {
        if (c.parent != id)
            continue;
        double b = std::max(c.start, s.start);
        double e = std::min(c.end, s.end);
        if (e > b)
            kids.emplace_back(b, e);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto &[b, e] : kids) {
        double from = std::max(b, reach);
        if (e > from)
            covered += e - from;
        reach = std::max(reach, e);
    }
    return (s.end - s.start) - covered;
}

std::string
SpanLog::toJson() const
{
    std::string out = "[";
    for (const Span &s : spans_) {
        out += strprintf("%s\n  {\"id\": %d, \"parent\": %d, \"name\": "
                         "%s, \"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"self_s\": %.9f}",
                         s.id == 0 ? "" : ",", s.id, s.parent,
                         jsonQuote(s.name).c_str(), s.start, s.end,
                         selfTime(s.id));
    }
    return out + "\n]\n";
}

namespace {

template <typename T>
bool
parseNumber(const std::string &text, T &out)
{
    const char *b = text.data();
    const char *e = b + text.size();
    auto [ptr, ec] = std::from_chars(b, e, out);
    return !text.empty() && ec == std::errc() && ptr == e;
}

} // namespace

bool
parseArgs(const std::vector<std::string> &argv,
          const std::vector<std::string> &knownWorkloads, Args &out,
          std::string &err)
{
    Args a;
    bool seen[5] = {};
    static const char *kFlags[5] = {"--workload", "--seed", "--seconds",
                                    "--trace", "--out-dir"};
    for (std::size_t i = 0; i < argv.size(); i += 2) {
        int f = 0;
        while (f < 5 && argv[i] != kFlags[f])
            f++;
        if (f == 5) {
            err = "unknown argument '" + argv[i] + "'";
            return false;
        }
        if (seen[f]) {
            err = std::string(kFlags[f]) + " given twice";
            return false;
        }
        seen[f] = true;
        if (i + 1 >= argv.size()) {
            err = std::string(kFlags[f]) + " needs a value";
            return false;
        }
        const std::string &v = argv[i + 1];
        bool ok = true;
        switch (f) {
        case 0:
            ok = std::find(knownWorkloads.begin(), knownWorkloads.end(),
                           v) != knownWorkloads.end();
            a.workload = v;
            break;
        case 1:
            ok = parseNumber(v, a.seed);
            break;
        case 2:
            ok = parseNumber(v, a.seconds) && a.seconds >= 1 &&
                 a.seconds <= 3600;
            break;
        case 3:
            ok = v == "0" || v == "1";
            a.trace = v == "1";
            break;
        default:
            ok = !v.empty();
            a.outDir = v;
            break;
        }
        if (!ok) {
            err = "bad value '" + v + "' for " + kFlags[f];
            return false;
        }
    }
    for (int f = 0; f < 5; ++f) {
        if (!seen[f]) {
            err = std::string("missing ") + kFlags[f];
            return false;
        }
    }
    out = a;
    return true;
}

namespace {

bool
charIn(char c, const char *extra)
{
    bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9');
    for (; !alnum && *extra; ++extra)
        alnum = c == *extra;
    return alnum;
}

} // namespace

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !charIn(name[0], ""))
        return false;
    return std::all_of(name.begin(), name.end(),
                       [](char c) { return charIn(c, "_.-"); });
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(),
                       [](char c) { return charIn(c, "_/%.-"); });
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false", (unsigned long long)attempted,
        (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += strprintf("%s%s: {\"value\": %.17g, \"unit\": %s}",
                         i ? ", " : "", jsonQuote(metrics[i].name).c_str(),
                         metrics[i].value,
                         jsonQuote(metrics[i].unit).c_str());
    }
    return out + "}}";
}

} // namespace hostperf
} // namespace glsc
