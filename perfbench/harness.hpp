/**
 * @file
 * Shared machinery of the `perfbench` program: command-line options, the
 * span recorder behind the traced run, per-round samples, output
 * checks, seeded Table-I instances and the result line.
 *
 * Every layer call the benchmark times is wrapped in a `Span`.  A span
 * always measures its own wall time (steady_clock); while tracing is
 * on it is also recorded, with its parent, thread, round and request
 * id, into per-thread buffers that are only read after the run.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/csr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Parsed command line of the `perfbench` executable. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
    bool tiny = false;        ///< self-test size: every input shrunk
    std::string work_dir;     ///< inputs and the span dump go here
};

// ---- spans ------------------------------------------------------------

/** One closed span, as written to the span dump. */
struct SpanRecord
{
    std::string name;
    std::int64_t start_ns = 0; ///< steady_clock, relative to process start
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root (no parent on this thread)
    std::uint32_t tid = 0;
    std::uint64_t request = 0; ///< serve-mix request id, else 0
    int round = -1;
};

/** Process-wide span recorder; off until `set_enabled(true)`. */
class Tracer
{
  public:
    static Tracer& instance();

    void set_enabled(bool on);
    bool enabled() const;
    /** Round index stamped on spans opened from now on. */
    void set_round(int r);
    int round() const;

    /** Every span recorded so far.  Call after recording threads joined. */
    std::vector<SpanRecord> collect() const;

    struct Buffer;
    Buffer& local_buffer();

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_; // guarded by mu_
};

/**
 * RAII span around one layer call.  `stop()` closes it early and
 * returns its duration; the destructor closes it if still open.
 */
class Span
{
  public:
    explicit Span(std::string name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double stop(); ///< seconds

  private:
    std::string name_;
    std::uint64_t request_;
    Clock::time_point start_;
    bool recording_;
    bool open_ = true;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    int round_ = -1;
    double seconds_ = 0;
};

/** Per-layer self times and the self-sum check over recorded spans. */
struct SpanSummary
{
    /** round -> module -> self seconds of that module's spans. */
    std::map<int, std::map<std::string, double>> self_by_round;
    /** Rounds that have a root span, ascending. */
    std::vector<int> rounds;
    /** Worst |sum of self times / root duration - 1| over root spans. */
    double worst_self_sum_error = 0;
    /** Sum of self times over root duration, at the worst root. */
    double worst_self_sum_ratio = 1;
};

SpanSummary summarize_spans(const std::vector<SpanRecord>& spans);

/** Write @p spans as JSON lines; returns false on I/O failure. */
bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans);

// ---- samples ------------------------------------------------------------

/**
 * Per-round sums.  `add` accumulates into the open round; `end_round`
 * appends every name's sum (0 for names seen in earlier rounds but not
 * this one) to its series.
 */
class Samples
{
  public:
    void add(const std::string& name, double v);
    void end_round();
    /** Keep only the rounds at @p rounds (ascending indices). */
    void select(const std::vector<std::size_t>& rounds);
    const std::vector<double>& series(const std::string& name) const;
    double median(const std::string& name) const;
    /** Median over rounds of num[i] / den[i] (rounds with den 0 skipped). */
    double median_ratio(const std::string& num, const std::string& den,
                        double scale = 1.0) const;
    std::size_t rounds() const { return rounds_; }

  private:
    std::map<std::string, double> open_;
    std::map<std::string, std::vector<double>> series_;
    std::size_t rounds_ = 0;
};

double median(std::vector<double> v);
/** "name: min .. median .. max over n" for a metric table note. */
std::string describe(const std::string& name, const std::vector<double>& v);
/** exp of the mean of @p logs: a geometric mean; 0 for an empty vector. */
double geomean_of_logs(const std::vector<double>& logs);
/** Nearest-rank quantile, q in [0, 1]; 0 for an empty vector. */
double quantile(std::vector<double> v, double q);

// ---- report ---------------------------------------------------------------

/**
 * Operation and check accounting plus the metric table.  A failed
 * operation or check is counted and logged; the run goes on and still
 * prints every metric.
 */
class Report
{
  public:
    /** Count one operation; false marks it failed. */
    void op(bool ok, const std::string& what = "");
    /** Count one output check; false marks it failed. */
    bool check(bool ok, const std::string& what);
    /** Count @p n operations (checks) of which @p failed failed. */
    void ops(std::uint64_t n, std::uint64_t failed, const std::string& what);
    void checks(std::uint64_t n, std::uint64_t failed,
                const std::string& what);

    void metric(const std::string& name, double value,
                const std::string& unit, std::size_t samples);
    void note(const std::string& line); ///< human-readable info line

    /**
     * Print the metric table, then the one-line JSON result holding
     * exactly the @p contract metrics (name, unit); one the workload did
     * not measure reads 0.
     */
    void print(
        const Options& opt, const std::string& threads,
        const std::vector<std::pair<std::string, std::string>>& contract);

    /**
     * Record that threads of the program under test were left blocked
     * (see serve-mix); `main` then ends the process right after
     * printing instead of waiting for them.
     */
    void abandon_threads() { abandoned_threads_ = true; }
    bool abandoned_threads() const { return abandoned_threads_; }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        std::size_t samples;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t failed_checks_ = 0;
    bool abandoned_threads_ = false;
};

// ---- rounds ---------------------------------------------------------------

/**
 * Run `round(r, traced)` until `opt.seconds` of rounds have elapsed and
 * at least `min_rounds` ran; a round that would likely end past the
 * deadline is not started.  In a traced run odd rounds record spans and
 * even rounds do not, so the two can be compared.  `round` returns the
 * seconds of its timed section.
 */
struct RoundTimes
{
    struct Kind
    {
        std::vector<double> seconds; ///< timed section of each round
        std::vector<double> steal;   ///< share of CPU time stolen
        std::vector<int> index;      ///< the round's `r`
    };
    Kind plain, traced;
};

RoundTimes run_rounds(const Options& opt, int min_rounds,
                      const std::function<double(int round, bool traced)>&
                          round);

/**
 * Drop the rounds during which the hypervisor ran other guests on this
 * machine's CPUs: keep rounds with at most 1% of the CPU time stolen
 * (the `steal` column of /proc/stat), or, when fewer than half of the
 * rounds are that clean, the half with the least steal.  Filters @p
 * times and the matching rounds of @p plain and @p traced, and notes
 * the count in @p rep.
 */
void drop_stolen_rounds(RoundTimes& times, Samples& plain, Samples& traced,
                        Report& rep);

// ---- inputs ---------------------------------------------------------------

/**
 * Table-I instance @p name regenerated by its family generator from
 * the workload seed (the registry's own instances use one fixed seed
 * per name).  @p scale divides |V| and |E| as in the registry.
 */
graphorder::Csr make_instance(const std::string& name, double scale,
                              std::uint64_t seed);

/** Write @p g as an edge list; throws on I/O failure. */
void write_edges(const std::string& path, const graphorder::Csr& g);

/** Set-ups per run; `setup_s` is their median. */
inline constexpr int kSetupReps = 9;

/**
 * Median of kSetupReps timed calls of @p setup, in seconds.  Spans of
 * call i carry round index `setup_round(i)`.
 */
double median_setup(const std::function<void()>& setup);

double peak_rss_mb();

/** Size of the file at @p path in bytes; 0 if it cannot be read. */
std::uint64_t file_bytes(const std::string& path);

// ---- traced-run summary -------------------------------------------------------

/** Round index of spans recorded after the measured rounds. */
inline constexpr int kProbeRound = -1;

/** Round index of spans recorded during set-up number @p rep. */
inline constexpr int
setup_round(int rep)
{
    return -2 - rep;
}

/**
 * Collect the recorded spans, write them to `<work_dir>/spans-<workload>
 * .jsonl`, and add `<module>.self_s` for every module that recorded
 * spans, `obs.trace_overhead_ratio` and `obs.self_sum_ratio`.  A module
 * seen in the rounds reports its median self time per traced round;
 * one seen only in set-up, its median per set-up; one seen only after
 * the rounds, its total there.  Prints a FLAG line when self times do
 * not add up to their root span's wall time.
 */
void report_trace_metrics(const Options& opt, Report& rep,
                          const RoundTimes& times);

} // namespace perfbench
