/**
 * @file
 * Pure logic of the host-performance benchmark (bench/hostperf): the
 * single host-clock read, order statistics, the in-memory span log
 * with self-time accounting, strict argument parsing, metric-name
 * validity and the one-line JSON result.  Nothing here touches the
 * simulator, so hostperf_test.cc exercises it directly.
 */

#ifndef GLSC_BENCH_HOSTPERF_HOSTPERF_H_
#define GLSC_BENCH_HOSTPERF_HOSTPERF_H_

#include <cstdint>
#include <string>
#include <vector>

namespace glsc {
namespace hostperf {

/**
 * Monotonic host seconds.  The only host-clock read of the benchmark;
 * its values never reach simulated state or SystemStats.
 */
double hostSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/**
 * First and third quartiles by the same rule as Python's
 * statistics.quantiles(v, n=4) (method "exclusive").  Fewer than two
 * values yield {v[0], v[0]} (or {0, 0} when empty).
 */
struct Quartiles
{
    double q1 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/**
 * Benchmark-side spans, kept in memory and written out at the end.
 * Each span has an id, a parent (-1 for a root) and host start/end
 * seconds.  Ids are indices into spans().
 */
struct Span
{
    int id = 0;
    int parent = -1;
    std::string name;
    double start = 0.0;
    double end = 0.0;
};

class SpanLog
{
  public:
    /** Opens a span under @p parent starting now; returns its id. */
    int begin(const std::string &name, int parent);
    /** Closes span @p id now. */
    void end(int id);
    /** Records an already-measured span; returns its id. */
    int add(const std::string &name, int parent, double start,
            double end);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Duration of span @p id minus the part of its interval covered by
     * its direct children (overlaps counted once, children clipped to
     * the parent).
     */
    double selfTime(int id) const;

    /** JSON array of every span, for the end-of-run span artifact. */
    std::string toJson() const;

  private:
    std::vector<Span> spans_;
};

/** Command line of the benchmark binary. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::string outDir;
};

/**
 * Strictly parses @p argv (without the program name): every flag of
 * --workload, --seed, --seconds, --trace and --out-dir exactly once,
 * numbers through from_chars with nothing left over, the workload one
 * of @p knownWorkloads.  Returns false with @p err set on any
 * deviation; nothing falls back to a default.
 */
bool parseArgs(const std::vector<std::string> &argv,
               const std::vector<std::string> &knownWorkloads, Args &out,
               std::string &err);

/** Metric names: a letter or digit first, then [A-Za-z0-9_.-], <= 64. */
bool validMetricName(const std::string &name);

/** Units: 1..16 of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * The benchmark's last stdout line: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}.  Values print with 17
 * significant digits (every digit measured).
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace hostperf
} // namespace glsc

#endif // GLSC_BENCH_HOSTPERF_HOSTPERF_H_
