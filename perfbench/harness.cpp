#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "gen/generators.hpp"
#include "graph/io.hpp"
#include "graph/permutation.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"

#include <unistd.h>

namespace perfbench {

using namespace graphorder;

// ---- spans ------------------------------------------------------------

namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<int> g_round{-1};
std::atomic<std::uint32_t> g_next_tid{1};

std::int64_t
ns_since_epoch(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
        .count();
}

} // namespace

/** Spans closed on one thread, plus that thread's open-span stack. */
struct Tracer::Buffer
{
    std::uint32_t tid = 0;
    std::uint64_t next_seq = 1;
    std::vector<std::uint64_t> open; ///< ids of open recording spans
    std::vector<SpanRecord> closed;
};

Tracer&
Tracer::instance()
{
    static Tracer t;
    return t;
}

void
Tracer::set_enabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
Tracer::enabled() const
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
Tracer::set_round(int r)
{
    g_round.store(r, std::memory_order_relaxed);
}

int
Tracer::round() const
{
    return g_round.load(std::memory_order_relaxed);
}

Tracer::Buffer&
Tracer::local_buffer()
{
    // The buffer is owned by the tracer, so spans of a finished thread
    // stay readable until collect().
    thread_local Buffer* local = nullptr;
    if (!local) {
        auto b = std::make_unique<Buffer>();
        b->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
        local = b.get();
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::move(b));
    }
    return *local;
}

std::vector<SpanRecord>
Tracer::collect() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& b : buffers_)
        all.insert(all.end(), b->closed.begin(), b->closed.end());
    return all;
}

Span::Span(std::string name, std::uint64_t request)
    : name_(std::move(name)), request_(request),
      recording_(Tracer::instance().enabled())
{
    if (recording_) {
        auto& buf = Tracer::instance().local_buffer();
        id_ = (static_cast<std::uint64_t>(buf.tid) << 40) | buf.next_seq++;
        parent_ = buf.open.empty() ? 0 : buf.open.back();
        buf.open.push_back(id_);
        round_ = Tracer::instance().round();
    }
    start_ = Clock::now();
}

Span::~Span()
{
    if (open_)
        stop();
}

double
Span::stop()
{
    if (!open_)
        return seconds_;
    const auto end = Clock::now();
    open_ = false;
    seconds_ = std::chrono::duration<double>(end - start_).count();
    if (recording_) {
        auto& buf = Tracer::instance().local_buffer();
        buf.open.pop_back(); // spans nest, so this one is on top
        buf.closed.push_back({std::move(name_), ns_since_epoch(start_),
                              ns_since_epoch(end), id_, parent_, buf.tid,
                              request_, round_});
    }
    return seconds_;
}

namespace {

std::string
module_of(const std::string& span_name)
{
    const auto dot = span_name.find('.');
    return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

} // namespace

SpanSummary
summarize_spans(const std::vector<SpanRecord>& spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            children[index.at(spans[i].parent)].push_back(i);

    // Self time: duration minus the part of it the children cover.
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const std::size_t c : children[i])
            iv.emplace_back(std::max(spans[c].start_ns, spans[i].start_ns),
                            std::min(spans[c].end_ns, spans[i].end_ns));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, reach = spans[i].start_ns;
        for (const auto& [a, b] : iv) {
            const std::int64_t lo = std::max(a, reach);
            if (b > lo) {
                covered += b - lo;
                reach = b;
            }
        }
        self[i] = 1e-9 * static_cast<double>(
                             spans[i].end_ns - spans[i].start_ns - covered);
    }

    SpanSummary out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        out.self_by_round[spans[i].round][module_of(spans[i].name)] += self[i];
        if (spans[i].parent == 0)
            out.rounds.push_back(spans[i].round);
    }
    std::sort(out.rounds.begin(), out.rounds.end());
    out.rounds.erase(std::unique(out.rounds.begin(), out.rounds.end()),
                     out.rounds.end());

    // Self times of a tree add up to its root's duration unless spans
    // overlap or leak out of their parents.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != 0)
            continue;
        double sum = 0;
        std::vector<std::size_t> stack{i};
        while (!stack.empty()) {
            const std::size_t s = stack.back();
            stack.pop_back();
            sum += self[s];
            stack.insert(stack.end(), children[s].begin(), children[s].end());
        }
        const double dur =
            1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        if (dur <= 0)
            continue;
        const double err = std::abs(sum / dur - 1.0);
        if (err > out.worst_self_sum_error) {
            out.worst_self_sum_error = err;
            out.worst_self_sum_ratio = sum / dur;
        }
    }
    return out;
}

bool
write_spans(const std::string& path, const std::vector<SpanRecord>& spans)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const auto& s : spans)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%" PRId64
                     ",\"end_ns\":%" PRId64 ",\"id\":%" PRIu64
                     ",\"parent\":%" PRIu64 ",\"tid\":%u,\"request\":%" PRIu64
                     ",\"round\":%d}\n",
                     s.name.c_str(), s.start_ns, s.end_ns, s.id, s.parent,
                     s.tid, s.request, s.round);
    return std::fclose(f) == 0;
}

// ---- samples ------------------------------------------------------------

void
Samples::add(const std::string& name, double v)
{
    open_[name] += v;
}

void
Samples::end_round()
{
    for (auto& [name, series] : series_)
        series.push_back(0.0);
    for (const auto& [name, v] : open_) {
        auto& s = series_[name];
        if (s.size() < rounds_ + 1)
            s.resize(rounds_ + 1, 0.0);
        s.back() = v;
    }
    open_.clear();
    ++rounds_;
}

void
Samples::select(const std::vector<std::size_t>& rounds)
{
    for (auto& [name, series] : series_) {
        std::vector<double> kept;
        for (const std::size_t r : rounds)
            kept.push_back(series.at(r));
        series = std::move(kept);
    }
    rounds_ = rounds.size();
}

const std::vector<double>&
Samples::series(const std::string& name) const
{
    static const std::vector<double> empty;
    const auto it = series_.find(name);
    return it == series_.end() ? empty : it->second;
}

double
Samples::median(const std::string& name) const
{
    return perfbench::median(series(name));
}

double
Samples::median_ratio(const std::string& num, const std::string& den,
                      double scale) const
{
    const auto& a = series(num);
    const auto& b = series(den);
    std::vector<double> r;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        if (b[i] != 0)
            r.push_back(scale * a[i] / b[i]);
    return perfbench::median(r);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double
geomean_of_logs(const std::vector<double>& logs)
{
    if (logs.empty())
        return 0.0;
    double sum = 0;
    for (const double l : logs)
        sum += l;
    return std::exp(sum / static_cast<double>(logs.size()));
}

std::string
describe(const std::string& name, const std::vector<double>& v)
{
    if (v.empty())
        return name + ": no samples";
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: %.6g .. %.6g .. %.6g over %zu",
                  name.c_str(), *std::min_element(v.begin(), v.end()),
                  median(v), *std::max_element(v.begin(), v.end()),
                  v.size());
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---- report ---------------------------------------------------------------

void
Report::op(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::printf("FAILED op: %s\n", what.c_str());
    }
}

bool
Report::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        ++failed_checks_;
        std::printf("FAILED check: %s\n", what.c_str());
    }
    return ok;
}

void
Report::ops(std::uint64_t n, std::uint64_t failed, const std::string& what)
{
    attempted_ += n;
    failed_ += failed;
    if (failed)
        std::printf("FAILED op: %s (%llu of %llu)\n", what.c_str(),
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(n));
}

void
Report::checks(std::uint64_t n, std::uint64_t failed, const std::string& what)
{
    failed_checks_ += failed;
    ops(n, failed, what);
}

void
Report::metric(const std::string& name, double value,
               const std::string& unit, std::size_t samples)
{
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit,
                        samples});
}

void
Report::note(const std::string& line)
{
    notes_.push_back(line);
}

void
Report::print(const Options& opt, const std::string& threads,
              const std::vector<std::pair<std::string, std::string>>& contract)
{
    std::map<std::string, const Metric*> by_name;
    for (const auto& m : metrics_)
        by_name[m.name] = &m;
    for (const auto& [name, unit] : contract) {
        const auto it = by_name.find(name);
        if (it != by_name.end())
            check(it->second->unit == unit,
                  name + ": unit " + it->second->unit + ", expected " + unit);
    }

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "threads: %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, threads.c_str());
    for (const auto& n : notes_)
        std::printf("  %s\n", n.c_str());
    std::printf("  %-36s %16s  %-7s %s\n", "metric", "median", "unit",
                "samples");
    for (const auto& m : metrics_)
        std::printf("  %-36s %16.6g  %-7s %zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    const double error_rate =
        attempted_ ? static_cast<double>(failed_)
                         / static_cast<double>(attempted_)
                   : 0.0;
    std::printf("  %-36s %16.6g  %-7s %llu failed of %llu\n", "error_rate",
                error_rate, "ratio", static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));

    std::string json = "{\"correct\": ";
    json += failed_checks_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < contract.size(); ++i) {
        const auto& [name, unit] = contract[i];
        const auto it = by_name.find(name);
        std::snprintf(buf, sizeof buf, "%.17g",
                      it == by_name.end() ? 0.0 : it->second->value);
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf
                + ", \"unit\": \"" + unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ---- rounds ---------------------------------------------------------------

namespace {

/** CPU seconds stolen from this machine so far, summed over CPUs. */
double
stolen_cpu_seconds()
{
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0;
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                &v[6], &v[7]);
    std::fclose(f);
    static const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    return got == 8 ? static_cast<double>(v[7]) * tick : 0.0;
}

} // namespace

RoundTimes
run_rounds(const Options& opt, int min_rounds,
           const std::function<double(int, bool)>& round)
{
    auto& tracer = Tracer::instance();
    RoundTimes times;
    const double cpus = static_cast<double>(std::thread::hardware_concurrency());
    const auto start = Clock::now();
    double slowest = 0;
    for (int r = 0;; ++r) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (r >= min_rounds && elapsed + slowest > opt.seconds)
            break;
        const bool traced = opt.trace && r % 2 == 1;
        tracer.set_round(r);
        tracer.set_enabled(traced);
        const double stolen0 = stolen_cpu_seconds();
        const double t = round(r, traced);
        const double stolen = stolen_cpu_seconds() - stolen0;
        tracer.set_enabled(false);
        const double wall =
            std::chrono::duration<double>(Clock::now() - start).count()
            - elapsed;
        auto& kind = traced ? times.traced : times.plain;
        kind.seconds.push_back(t);
        kind.steal.push_back(wall > 0 && cpus > 0 ? stolen / (wall * cpus)
                                                  : 0.0);
        kind.index.push_back(r);
        slowest = std::max(slowest, wall);
    }
    return times;
}

namespace {

/** Indices of the rounds drop_stolen_rounds keeps, ascending. */
std::vector<std::size_t>
clean_rounds(const std::vector<double>& steal)
{
    constexpr double kMaxSteal = 0.01;
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < steal.size(); ++i)
        if (steal[i] <= kMaxSteal)
            keep.push_back(i);
    if (2 * keep.size() >= steal.size())
        return keep;
    std::vector<std::size_t> order(steal.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return steal[a] < steal[b];
                     });
    order.resize((steal.size() + 1) / 2);
    std::sort(order.begin(), order.end());
    return order;
}

void
keep_rounds(RoundTimes::Kind& kind, const std::vector<std::size_t>& keep)
{
    RoundTimes::Kind kept;
    for (const std::size_t i : keep) {
        kept.seconds.push_back(kind.seconds[i]);
        kept.steal.push_back(kind.steal[i]);
        kept.index.push_back(kind.index[i]);
    }
    kind = std::move(kept);
}

} // namespace

void
drop_stolen_rounds(RoundTimes& times, Samples& plain, Samples& traced,
                   Report& rep)
{
    const std::size_t ran = times.plain.seconds.size()
                            + times.traced.seconds.size();
    const auto keep_plain = clean_rounds(times.plain.steal);
    const auto keep_traced = clean_rounds(times.traced.steal);
    keep_rounds(times.plain, keep_plain);
    keep_rounds(times.traced, keep_traced);
    plain.select(keep_plain);
    traced.select(keep_traced);
    const std::size_t kept = keep_plain.size() + keep_traced.size();
    rep.note("rounds: " + std::to_string(ran) + " ran, "
             + std::to_string(ran - kept)
             + " dropped for CPU time stolen by the hypervisor");
}

// ---- inputs ---------------------------------------------------------------

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

Csr
scramble(Csr g, std::uint64_t seed)
{
    Rng rng(seed ^ 0xA5A5A5A5DEADBEEFULL);
    return apply_permutation(g, random_permutation(g.num_vertices(), rng));
}

} // namespace

Csr
make_instance(const std::string& name, double scale, std::uint64_t seed)
{
    // The family-to-generator mapping of the Table-I registry
    // (gen/datasets.cpp), with a seed mixed from the name and the
    // workload seed in place of the registry's per-name constant.
    const Dataset& d = dataset_by_name(name);
    std::uint64_t s = seed;
    for (const char c : name)
        s = splitmix64(s ^ static_cast<unsigned char>(c));
    const auto n = static_cast<vid_t>(std::max(
        16.0, std::round(static_cast<double>(d.paper_vertices) / scale)));
    const auto m = static_cast<eid_t>(std::max(
        32.0, std::round(static_cast<double>(d.paper_edges) / scale)));
    switch (d.family) {
      case GraphFamily::Road:
          return gen_road(n, m, s);
      case GraphFamily::Mesh: {
          const double ratio = static_cast<double>(d.paper_edges)
                               / static_cast<double>(d.paper_vertices);
          const int rings = ratio < 2.5
                                ? -1
                                : (ratio < 4.0 ? 0 : 1 + int(ratio / 4.0));
          Csr g = gen_mesh(n, rings, s);
          if (name.rfind("delaunay", 0) == 0)
              return scramble(std::move(g), s);
          return g;
      }
      case GraphFamily::Social:
          return scramble(gen_social(n, m, s), s);
      case GraphFamily::Web:
          return scramble(gen_rmat(n, m, 0.62, 0.18, 0.18, s), s);
      case GraphFamily::HubForest:
          return scramble(
              gen_hub_forest(n, m, std::max<vid_t>(4, n / 400), s), s);
      case GraphFamily::Community:
          return scramble(
              gen_sbm(n, m,
                      std::max<vid_t>(8, static_cast<vid_t>(
                                             std::sqrt(n) / 2)),
                      0.8, s),
              s);
    }
    throw std::logic_error("unknown graph family");
}

void
write_edges(const std::string& path, const Csr& g)
{
    std::ofstream out(path);
    write_edge_list(out, g);
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

double
median_setup(const std::function<void()>& setup)
{
    std::vector<double> t;
    for (int i = 0; i < kSetupReps; ++i) {
        Tracer::instance().set_round(setup_round(i));
        const auto start = Clock::now();
        setup();
        t.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
    }
    return median(t);
}

double
peak_rss_mb()
{
    return static_cast<double>(obs::rss_peak_bytes()) / (1024.0 * 1024.0);
}

std::uint64_t
file_bytes(const std::string& path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

void
report_trace_metrics(const Options& opt, Report& rep, const RoundTimes& times)
{
    const auto spans = Tracer::instance().collect();
    const std::string dump =
        opt.work_dir + "/spans-" + opt.workload + ".jsonl";
    if (!write_spans(dump, spans))
        std::printf("warn: cannot write span dump %s\n", dump.c_str());

    const SpanSummary sum = summarize_spans(spans);
    // module -> per-round self seconds, separately for measured rounds
    // and set-ups (0 where the module recorded nothing that round).
    std::map<std::string, std::vector<double>> measured, setup;
    std::set<std::string> modules;
    for (const auto& [r, by_module] : sum.self_by_round)
        for (const auto& [mod, t] : by_module)
            modules.insert(mod);
    const std::set<int> kept(times.traced.index.begin(),
                             times.traced.index.end());
    for (const int r : sum.rounds) {
        if (r == kProbeRound || (r >= 0 && !kept.count(r)))
            continue;
        const auto& by_module = sum.self_by_round.at(r);
        for (const auto& mod : modules) {
            const auto it = by_module.find(mod);
            (r >= 0 ? measured : setup)[mod].push_back(
                it == by_module.end() ? 0.0 : it->second);
        }
    }
    for (const auto& mod : modules) {
        const auto in = [&](const auto& m) {
            const auto it = m.find(mod);
            return it != m.end()
                   && std::any_of(it->second.begin(), it->second.end(),
                                  [](double t) { return t > 0; });
        };
        if (in(measured))
            rep.metric(mod + ".self_s", median(measured[mod]), "s",
                       measured[mod].size());
        else if (in(setup))
            rep.metric(mod + ".self_s", median(setup[mod]), "s",
                       setup[mod].size());
        else
            rep.metric(mod + ".self_s",
                       sum.self_by_round.count(kProbeRound)
                               && sum.self_by_round.at(kProbeRound)
                                      .count(mod)
                           ? sum.self_by_round.at(kProbeRound).at(mod)
                           : 0.0,
                       "s", 1);
    }

    const double plain = median(times.plain.seconds);
    rep.metric("obs.trace_overhead_ratio",
               plain > 0 ? median(times.traced.seconds) / plain : 0.0,
               "ratio", times.traced.seconds.size());
    rep.metric("obs.self_sum_ratio", sum.worst_self_sum_ratio, "ratio",
               spans.size());
    if (sum.worst_self_sum_error > 1e-6)
        std::printf("FLAG: per-layer self times add up to %.6f of their "
                    "root span's wall time\n",
                    sum.worst_self_sum_ratio);
    rep.note("span dump: " + dump + " (" + std::to_string(spans.size())
             + " spans)");
}

} // namespace perfbench
