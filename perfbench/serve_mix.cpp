/**
 * @file
 * `serve-mix`: an in-process ReorderService driven over its wire
 * protocol.  Closed-loop clients, each on its own socketpair into
 * `serve_fd`, wait for every reply before sending the next request.
 * Most requests hit the permutation cache; a fixed share are
 * `no_cache=1` lightweight misses.  Before each round one graph is
 * re-LOADed from the other of two seeded edge files, so its
 * fingerprint changes and its cached orderings are recomputed.
 */
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <barrier>
#include <cmath>
#include <functional>
#include <cstdlib>
#include <map>
#include <thread>

#include "graph/io.hpp"
#include "la/gap_measures.hpp"
#include "obs/metrics.hpp"
#include "order/runner.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace graphorder;

namespace {

const std::vector<std::string> kGraphs = {"pgp", "us-powergrid",
                                          "openflights", "caida"};
/** Re-LOADed before every round, alternating between two files. */
const std::string kReloadGraph = "pgp";
const std::vector<std::string> kSchemes = {"degree", "dbg",    "hubcluster",
                                           "boba",   "rabbit", "rcm"};
/** Schemes of the `no_cache=1` misses. */
const std::vector<std::string> kLightSchemes = {"degree", "dbg",
                                                "hubcluster", "boba"};
constexpr int kClients = 4;
constexpr double kNoCacheShare = 0.05;
constexpr int kServiceWorkers = 2;
constexpr int kSchemeThreads = 2;
/**
 * A reply slower than this is counted as lost.  Replies take
 * milliseconds; a lost one would otherwise block its client forever.
 */
constexpr int kReplyTimeoutS = 2;

const std::vector<std::string> kCounters = {
    "service/cache_hits", "service/cache_misses", "service/coalesced",
    "service/rejected",   "service/degraded",     "service/retries"};

std::uint64_t
counter(const std::string& name)
{
    return obs::MetricsRegistry::instance().counter(name).value();
}

/** One client connection: a socketpair whose far end `serve_fd` runs. */
class Connection
{
  public:
    explicit Connection(service::ReorderService& svc)
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
            throw std::runtime_error("socketpair failed");
        timeval tv{kReplyTimeoutS, 0};
        ::setsockopt(fds_[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        reader_ = std::make_unique<service::LineReader>(fds_[0]);
        server_ = std::thread([&svc, fd = fds_[1]] {
            svc.serve_fd(fd, fd);
            ::close(fd);
        });
    }

    ~Connection()
    {
        ::shutdown(fds_[0], SHUT_WR); // EOF: serve_fd drains and returns
        server_.join();
        ::close(fds_[0]);
    }

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /** Send one request line and wait for its reply line. */
    bool call(const std::string& request, std::string& reply)
    {
        const std::string framed = request + "\n";
        const char* p = framed.data();
        std::size_t left = framed.size();
        while (left > 0) {
            const ssize_t n = ::write(fds_[0], p, left);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        return reader_->next(reply) == service::LineReader::Result::kLine;
    }

  private:
    int fds_[2] = {-1, -1};
    std::unique_ptr<service::LineReader> reader_;
    std::thread server_;
};

/**
 * Persistent client threads.  `run(job)` has every thread call
 * `job(client)` and returns when all of them are done, so rounds are
 * separated by a barrier.
 */
class ClientPool
{
  public:
    using Job = std::function<void(int client)>;

    explicit ClientPool(int n) : start_(n + 1), done_(n + 1)
    {
        for (int c = 0; c < n; ++c)
            threads_.emplace_back([this, c] {
                for (;;) {
                    start_.arrive_and_wait();
                    if (stop_)
                        return;
                    (*job_)(c);
                    done_.arrive_and_wait();
                }
            });
    }

    ~ClientPool()
    {
        stop_ = true;
        start_.arrive_and_wait();
        for (auto& t : threads_)
            t.join();
    }

    ClientPool(const ClientPool&) = delete;
    ClientPool& operator=(const ClientPool&) = delete;

    void run(const Job& job)
    {
        job_ = &job;
        start_.arrive_and_wait();
        done_.arrive_and_wait();
    }

  private:
    // Written before start_ is passed and read after it: the barrier
    // orders the accesses.
    const Job* job_ = nullptr;
    bool stop_ = false;
    std::barrier<> start_, done_;
    std::vector<std::thread> threads_;
};

/** A running service with its client connections and threads. */
struct Rig
{
    std::unique_ptr<service::ReorderService> svc;
    std::unique_ptr<Connection> admin;
    std::vector<std::unique_ptr<Connection>> clients;
    std::unique_ptr<ClientPool> pool;
    /**
     * Connections that lost a reply.  `serve_fd` waits at EOF until
     * every reply of its connection was written, so their threads never
     * end and they cannot be closed; see `retire`.
     */
    std::vector<std::unique_ptr<Connection>> wedged;

    ~Rig()
    {
        pool.reset();
        clients.clear();
        admin.reset();
        if (svc)
            svc->stop();
    }
};

/** What a client saw of one reply. */
struct Reply
{
    double client_ms = 0;
    double total_ms = 0;
    double queue_ms = 0;
    double run_ms = 0;
    bool computed = false; ///< neither a cache hit nor a coalesced ride
    std::string scheme;
};

struct ClientLog
{
    std::vector<Reply> replies;
    std::uint64_t sent = 0, failed = 0, bad_checks = 0, fell_back = 0;
    bool lost_reply = false; ///< the connection can no longer be used
};

class ServeMix
{
  public:
    ServeMix(const Options& opt, Report& rep) : opt_(opt), rep_(rep) {}

    void run();

  private:
    std::string path(const std::string& graph, int version) const;
    double write_inputs(); ///< returns the generator seconds
    void compute_references();
    std::unique_ptr<Rig> start_rig();
    void retire(std::unique_ptr<Rig>& rig);
    bool reload(Rig& rig, int version);
    double round(Rig& rig, int r, int version, Samples& s);
    ClientLog client(Connection& conn, int r, int c, int version);

    const Options& opt_;
    Report& rep_;
    int requests_per_client_ = 250;
    /** (graph, version, scheme) -> permutation_fnv computed in process. */
    std::map<std::tuple<std::string, int, std::string>, std::uint64_t> ref_;
    std::vector<double> log_gap_ratio_;
    std::map<std::string, std::vector<double>> log_gap_; ///< per scheme
    /** Pooled over rounds: computed replies are few per round. */
    std::vector<double> queue_ms_, run_ms_;
    Samples plain_, traced_;
    std::uint64_t fallbacks_ = 0;
};

std::string
ServeMix::path(const std::string& graph, int version) const
{
    return opt_.work_dir + "/serve-mix-" + graph + "-" + std::to_string(version)
           + ".edges";
}

double
ServeMix::write_inputs()
{
    const double scale = opt_.tiny ? 16 : 1;
    double gen_s = 0;
    for (const auto& g : kGraphs) {
        Span make("gen.make");
        const Csr a = make_instance(g, scale, opt_.seed);
        gen_s += make.stop();
        write_edges(path(g, 0), a);
    }
    Span make("gen.make");
    const Csr b = make_instance(kReloadGraph, scale, opt_.seed + 1);
    gen_s += make.stop();
    write_edges(path(kReloadGraph, 1), b);
    return gen_s;
}

void
ServeMix::compute_references()
{
    // The oracle for every served perm_fnv: the same loader and the
    // same guarded runner, called in process.
    set_default_threads(kSchemeThreads);
    for (const auto& g : kGraphs)
        for (int version = 0; version < (g == kReloadGraph ? 2 : 1);
             ++version) {
            const Csr csr = load_edge_list(path(g, version));
            const double natural = compute_gap_metrics(csr).avg_gap;
            if (version == 0)
                log_gap_["natural"].push_back(std::log(natural));
            for (const auto& scheme : kSchemes) {
                GuardedRunOptions gopt;
                gopt.seed = opt_.seed;
                auto r = run_guarded(scheme, csr, gopt);
                rep_.op(r.has_value(), "reference run_guarded " + scheme);
                if (!r.has_value())
                    continue;
                fallbacks_ += r->failures.empty() ? 0 : 1;
                ref_[{g, version, scheme}] = service::permutation_fnv(r->perm);
                if (version == 0) {
                    const double gap =
                        compute_gap_metrics(csr, r->perm).avg_gap;
                    log_gap_[scheme].push_back(std::log(gap));
                    log_gap_ratio_.push_back(std::log(gap / natural));
                }
            }
        }
}

std::unique_ptr<Rig>
ServeMix::start_rig()
{
    auto rig = std::make_unique<Rig>();
    service::ServiceOptions sopt;
    sopt.workers = kServiceWorkers;
    sopt.queue_capacity = 256;
    sopt.cache_capacity = 256;
    rig->svc = std::make_unique<service::ReorderService>(sopt);
    rig->admin = std::make_unique<Connection>(*rig->svc);
    for (int c = 0; c < kClients; ++c)
        rig->clients.push_back(std::make_unique<Connection>(*rig->svc));
    rig->pool = std::make_unique<ClientPool>(kClients);
    for (const auto& g : kGraphs) {
        std::string reply;
        const bool ok = rig->admin->call(
            "LOAD graph=" + g + " path=" + path(g, 0) + " format=edges",
            reply);
        rep_.op(ok && reply.rfind("OK", 0) == 0, "LOAD " + g + ": " + reply);
    }
    return rig;
}

void
ServeMix::retire(std::unique_ptr<Rig>& rig)
{
    if (rig && !rig->wedged.empty()) {
        // Joining a wedged connection's thread would block forever: keep
        // the whole rig alive and let the process end without joining.
        rep_.abandon_threads();
        (void)rig.release();
    }
    rig.reset();
}

bool
ServeMix::reload(Rig& rig, int version)
{
    std::string reply;
    const bool ok =
        rig.admin->call("LOAD graph=" + kReloadGraph + " path="
                            + path(kReloadGraph, version) + " format=edges",
                        reply);
    return ok && reply.rfind("OK", 0) == 0;
}

ClientLog
ServeMix::client(Connection& conn, int r, int c, int version)
{
    Span root("bench.client");
    ClientLog log;
    // The request order depends on the workload seed, the round and
    // the client.
    Rng rng(opt_.seed * 0x9E3779B97F4A7C15ULL
            ^ (static_cast<std::uint64_t>(r) << 20)
            ^ static_cast<std::uint64_t>(c));
    std::string line;
    for (int i = 0; i < requests_per_client_; ++i) {
        const bool no_cache = rng.next_bool(kNoCacheShare);
        const auto& schemes = no_cache ? kLightSchemes : kSchemes;
        const std::string& graph = kGraphs[rng.next_below(kGraphs.size())];
        const std::string& scheme = schemes[rng.next_below(schemes.size())];
        const std::string id = "r" + std::to_string(r) + "c"
                               + std::to_string(c) + "i" + std::to_string(i);
        const std::string req = "ORDER graph=" + graph + " scheme=" + scheme
                                + " seed=" + std::to_string(opt_.seed)
                                + " id=" + id
                                + (no_cache ? " no_cache=1" : "");
        ++log.sent;
        const std::uint64_t request_id =
            (static_cast<std::uint64_t>(r) << 32)
            | (static_cast<std::uint64_t>(c) << 24)
            | static_cast<std::uint64_t>(i);
        Span span("service.order", request_id);
        const bool got = conn.call(req, line);
        const double ms = 1e3 * span.stop();
        if (!got) {
            ++log.failed;
            log.lost_reply = true;
            break;
        }
        service::Response resp;
        try {
            resp = service::parse_response(line);
        } catch (...) {
            ++log.failed;
            continue;
        }
        if (!resp.ok || resp.get("id") != id) {
            ++log.failed;
            continue;
        }
        const int ver = graph == kReloadGraph ? version : 0;
        const auto expected = ref_.find({graph, ver, scheme});
        const std::uint64_t fnv =
            std::strtoull(resp.get("perm_fnv", "0").c_str(), nullptr, 16);
        if (expected == ref_.end() || fnv != expected->second)
            ++log.bad_checks;
        if (resp.get("fell_back") == "1")
            ++log.fell_back;
        Reply rp;
        rp.client_ms = ms;
        rp.total_ms = std::atof(resp.get("total_ms", "0").c_str());
        rp.queue_ms = std::atof(resp.get("queue_ms", "0").c_str());
        rp.run_ms = std::atof(resp.get("run_ms", "0").c_str());
        rp.computed =
            resp.get("cached") == "0" && resp.get("coalesced") == "0";
        rp.scheme = scheme;
        log.replies.push_back(std::move(rp));
    }
    return log;
}

double
ServeMix::round(Rig& rig, int r, int version, Samples& s)
{
    std::map<std::string, std::uint64_t> before;
    for (const auto& name : kCounters)
        before[name] = counter(name);

    Span root("bench.round");
    if (version >= 0) {
        Span load("service.load");
        const bool ok = reload(rig, version);
        s.add("service.reload_s", load.stop());
        rep_.op(ok, "reload " + kReloadGraph);
    }
    // Clients start together and the round ends when the last one is
    // done: a barrier between rounds, so each round's misses are exactly
    // the reloaded graph's schemes.
    const auto clients_start = Clock::now();
    std::vector<ClientLog> logs(kClients);
    rig.pool->run([&](int c) {
        logs[c] = client(*rig.clients[c], r, c, version < 0 ? 0 : version);
    });
    const double clients_s =
        std::chrono::duration<double>(Clock::now() - clients_start).count();
    const double timed = root.stop();

    for (int c = 0; c < kClients; ++c)
        if (logs[c].lost_reply) {
            std::printf("FAILED: client %d got no reply within %d s; it "
                        "moves to a new connection\n",
                        c, kReplyTimeoutS);
            rig.wedged.push_back(std::move(rig.clients[c]));
            rig.clients[c] = std::make_unique<Connection>(*rig.svc);
        }

    std::uint64_t sent = 0;
    std::vector<double> client_ms, wire_ms;
    for (const auto& log : logs) {
        sent += log.sent;
        rep_.ops(log.sent, log.failed, "ORDER requests failed");
        rep_.check(!log.lost_reply, "every request gets exactly one reply");
        rep_.checks(log.replies.size(), log.bad_checks,
                    "served perm_fnv differs from the in-process ordering");
        fallbacks_ += log.fell_back;
        for (const Reply& rp : log.replies) {
            client_ms.push_back(rp.client_ms);
            wire_ms.push_back(rp.client_ms - rp.total_ms);
            if (!rp.computed)
                continue;
            queue_ms_.push_back(rp.queue_ms);
            run_ms_.push_back(rp.run_ms);
            s.add("reorder_s", rp.client_ms / 1e3);
            s.add("order." + rp.scheme + "_s", rp.run_ms / 1e3);
        }
    }
    // Latency quantiles per round (1000 requests, so ten beyond p99),
    // then medians over rounds.
    s.add("client_p50_ms", quantile(client_ms, 0.50));
    s.add("client_p99_ms", quantile(client_ms, 0.99));
    s.add("wire_p50_ms", quantile(wire_ms, 0.50));
    s.add("requests", static_cast<double>(sent));
    s.add("clients_s", clients_s);
    for (const auto& name : kCounters)
        s.add(name, static_cast<double>(counter(name) - before[name]));
    s.end_round();
    return timed;
}

void
ServeMix::run()
{
    set_default_threads(kSchemeThreads);
    if (opt_.tiny)
        requests_per_client_ = 20;
    write_inputs();
    compute_references();

    auto& tracer = Tracer::instance();
    tracer.set_enabled(opt_.trace);
    std::unique_ptr<Rig> rig;
    Samples scratch;
    std::vector<double> gen_s;
    const double setup_s = median_setup([&] {
        retire(rig);
        gen_s.push_back(write_inputs());
        rig = start_rig();
        Span warmup("bench.warmup");
        round(*rig, -1, -1, scratch); // fills the cache for version 0
    });
    tracer.set_enabled(false);
    queue_ms_.clear();
    run_ms_.clear();

    RoundTimes times = run_rounds(opt_, 3, [&](int r, bool traced) {
        return round(*rig, r, (r + 1) % 2, traced ? traced_ : plain_);
    });
    drop_stolen_rounds(times, plain_, traced_, rep_);
    retire(rig);

    if (!opt_.trace) {
        const Samples& s = plain_;
        const std::size_t n = s.rounds();
        rep_.metric("setup_s", setup_s, "s", kSetupReps);
        rep_.metric("round_s", median(times.plain.seconds), "s", n);
        rep_.note(describe("round_s", times.plain.seconds));
        rep_.metric("reorder_s", s.median("reorder_s"), "s", n);
        rep_.metric("avg_gap_ratio", geomean_of_logs(log_gap_ratio_),
                    "ratio", log_gap_ratio_.size());
        rep_.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        rep_.metric("serve_p50_ms", s.median("client_p50_ms"), "ms", n);
        rep_.metric("serve_p99_ms", s.median("client_p99_ms"), "ms", n);
        rep_.metric("serve_rps", s.median_ratio("requests", "clients_s"),
                    "1/s", n);
    } else {
        const Samples& s = traced_;
        const std::size_t n = s.rounds();
        rep_.metric("gen.make_s", median(gen_s), "s", gen_s.size());
        rep_.metric("service.client_p50_ms", s.median("client_p50_ms"), "ms",
                    n);
        rep_.metric("service.client_p99_ms", s.median("client_p99_ms"), "ms",
                    n);
        rep_.metric("service.rps", s.median_ratio("requests", "clients_s"),
                    "1/s", n);
        std::vector<double> hit_ratio;
        const auto& hits = s.series("service/cache_hits");
        const auto& misses = s.series("service/cache_misses");
        const auto& coalesced = s.series("service/coalesced");
        for (std::size_t i = 0; i < hits.size(); ++i) {
            const double cacheable = hits[i] + misses[i] + coalesced[i];
            if (cacheable > 0)
                hit_ratio.push_back(hits[i] / cacheable);
        }
        rep_.metric("service.cache_hit_ratio", median(hit_ratio), "ratio", n);
        rep_.metric("service.wire_p50_ms", s.median("wire_p50_ms"), "ms", n);
        rep_.metric("service.misses", s.median("service/cache_misses"),
                    "count", n);
        rep_.metric("service.coalesced", s.median("service/coalesced"),
                    "count", n);
        rep_.metric("service.queue_wait_p99_ms", quantile(queue_ms_, 0.99),
                    "ms", queue_ms_.size());
        rep_.metric("service.run_p99_ms", quantile(run_ms_, 0.99), "ms",
                    run_ms_.size());
        rep_.metric("service.reload_s", s.median("service.reload_s"), "s", n);
        rep_.metric("service.rejected", s.median("service/rejected"), "count",
                    n);
        rep_.metric("service.degraded", s.median("service/degraded"), "count",
                    n);
        rep_.metric("service.retries", s.median("service/retries"), "count",
                    n);
        for (const auto& scheme : kSchemes)
            rep_.metric("order." + scheme + "_s",
                        s.median("order." + scheme + "_s"), "s", n);
        for (const auto& [scheme, logs] : log_gap_)
            rep_.metric("la.avg_gap." + scheme, geomean_of_logs(logs), "ids",
                        logs.size());
        report_trace_metrics(opt_, rep_, times);
    }
    rep_.metric("order.fallbacks", static_cast<double>(fallbacks_), "count",
                1);
}

} // namespace

void
run_serve_mix(const Options& opt, Report& rep)
{
    ServeMix(opt, rep).run();
}

} // namespace perfbench
