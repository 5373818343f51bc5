/**
 * @file
 * `reorder-heavy`: the heavyweight schemes of the qualitative study on
 * a fixed subset of the Table-I instances, one per structural family.
 * A round reorders every instance with every scheme and computes gap
 * measures; it runs no kernels.
 */
#include <cmath>
#include <map>

#include "graph/permutation.hpp"
#include "la/gap_measures.hpp"
#include "order/runner.hpp"
#include "part/partition.hpp"
#include "part/separator.hpp"
#include "service/protocol.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace graphorder;

namespace {

const std::vector<std::string> kSchemes = {"gorder", "slashburn", "metis-32",
                                           "nd",     "rcm",       "rabbit"};
/**
 * The cheaper Table-I instances of five families (a pass of all 25
 * takes ~43 s; the web instances alone ~11 s), so that a run holds ten
 * passes.
 */
const std::vector<std::string> kInstances = {
    "euroroad",     "us-powergrid",  "facebook-nips", "figeys",
    "urv-email",    "hamster-small", "hamster-full",  "delaunay_n11",
    "delaunay_n12", "pgp"};
constexpr int kThreads = 4;
constexpr vid_t kParts = 32;     ///< metis-32
constexpr vid_t kNdLeaf = 32;    ///< leaf size of the `nd` scheme

class ReorderHeavy
{
  public:
    ReorderHeavy(const Options& opt, Report& rep) : opt_(opt), rep_(rep) {}

    void run();

  private:
    double round(const std::vector<Csr>& graphs, Samples& s, bool keep);
    void one_thread_pass();
    void part_probe(Samples& s);

    const Options& opt_;
    Report& rep_;
    std::vector<Csr> graphs_;
    Samples plain_, traced_;
    /** (instance, scheme) -> fingerprint of the first measured round. */
    std::map<std::pair<std::size_t, std::string>, std::uint64_t> fnv_;
    std::map<std::string, double> one_thread_s_;
    std::map<std::string, std::vector<double>> log_gap_; ///< per scheme
    std::vector<double> log_ratio_;
    std::uint64_t fallbacks_ = 0;
};

double
ReorderHeavy::round(const std::vector<Csr>& graphs, Samples& s, bool keep)
{
    Span root("bench.round");
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const Csr& g = graphs[i];
        double natural_gap = 0;
        {
            Span gap_span("la.compute_gap_metrics");
            natural_gap = compute_gap_metrics(g).avg_gap;
        }
        if (keep)
            log_gap_["natural"].push_back(std::log(natural_gap));
        for (const auto& scheme : kSchemes) {
            GuardedRunOptions gopt;
            gopt.seed = opt_.seed;
            Span order_span("order." + scheme);
            auto r = run_guarded(scheme, g, gopt);
            const double order_s = order_span.stop();
            rep_.op(r.has_value(), "run_guarded " + scheme);
            if (!r.has_value())
                continue;
            fallbacks_ += r->failures.empty() ? 0 : 1;
            Span apply_span("graph.apply_permutation");
            const Csr h = apply_permutation(g, r->perm);
            const double apply_s = apply_span.stop();
            s.add("order." + scheme + "_s", order_s);
            s.add("graph.apply_s", apply_s);
            s.add("reorder_s", order_s + apply_s);
            rep_.op(h.num_arcs() == g.num_arcs(), "apply " + scheme);

            double gap = 0;
            {
                Span gap_span("la.compute_gap_metrics");
                gap = compute_gap_metrics(g, r->perm).avg_gap;
            }
            if (keep) {
                log_gap_[scheme].push_back(std::log(gap));
                log_ratio_.push_back(std::log(gap / natural_gap));
            }

            rep_.check(validate_permutation(r->perm, g.num_vertices()).is_ok(),
                       kInstances[i] + "/" + scheme + ": permutation invalid");
            const std::uint64_t fnv = service::permutation_fnv(r->perm);
            const auto [it, first] = fnv_.emplace(std::pair{i, scheme}, fnv);
            if (!first)
                rep_.check(it->second == fnv,
                           kInstances[i] + "/" + scheme
                               + ": fingerprint changed between rounds");
        }
    }
    return root.stop();
}

void
ReorderHeavy::one_thread_pass()
{
    set_default_threads(1);
    for (std::size_t i = 0; i < graphs_.size(); ++i)
        for (const auto& scheme : kSchemes) {
            GuardedRunOptions gopt;
            gopt.seed = opt_.seed;
            Span span("order." + scheme);
            auto r = run_guarded(scheme, graphs_[i], gopt);
            one_thread_s_[scheme] += span.stop();
            rep_.op(r.has_value(), "1-thread run_guarded " + scheme);
            if (!r.has_value())
                continue;
            fallbacks_ += r->failures.empty() ? 0 : 1;
            rep_.check(service::permutation_fnv(r->perm)
                           == fnv_[{i, scheme}],
                       kInstances[i] + "/" + scheme
                           + ": 1-thread fingerprint differs");
        }
    set_default_threads(kThreads);
}

void
ReorderHeavy::part_probe(Samples& s)
{
    // The part layer's two entry points, called directly with the
    // options the metis-32 and nd schemes pass them.
    for (const Csr& g : graphs_) {
        PartitionOptions popt;
        popt.seed = opt_.seed;
        Span kway("part.partition_kway");
        const Partition p = partition_kway(g, kParts, popt);
        s.add("part.kway_s", kway.stop());
        bool in_range = p.part.size() == g.num_vertices();
        for (const vid_t q : p.part)
            in_range = in_range && q < p.num_parts;
        rep_.check(in_range, "partition_kway: part ids out of range");

        Span nd("part.nested_dissection_order");
        const auto order = nested_dissection_order(g, kNdLeaf, popt);
        s.add("part.nd_s", nd.stop());
        rep_.check(validate_permutation(Permutation::from_order(order),
                                        g.num_vertices())
                       .is_ok(),
                   "nested_dissection_order: not a permutation");
    }
    s.end_round();
}

void
ReorderHeavy::run()
{
    set_default_threads(kThreads);
    const double scale = opt_.tiny ? 16 : 1;
    auto& tracer = Tracer::instance();
    tracer.set_enabled(opt_.trace);
    std::vector<double> gen_s;
    Samples scratch;
    const double setup_s = median_setup([&] {
        graphs_.clear();
        std::vector<Csr> warm;
        Span make("gen.make");
        for (const auto& name : kInstances) {
            graphs_.push_back(make_instance(name, scale, opt_.seed));
            warm.push_back(make_instance(name, 64, opt_.seed));
        }
        gen_s.push_back(make.stop());
        Span warmup("bench.warmup");
        round(warm, scratch, false);
    });
    tracer.set_enabled(false);
    fnv_.clear();

    bool first = true;
    RoundTimes times = run_rounds(opt_, 3, [&](int, bool traced) {
        const double t = round(graphs_, traced ? traced_ : plain_, first);
        (traced ? traced_ : plain_).end_round();
        first = false;
        return t;
    });
    drop_stolen_rounds(times, plain_, traced_, rep_);

    tracer.set_round(kProbeRound);
    tracer.set_enabled(opt_.trace);
    one_thread_pass();
    Samples part;
    if (opt_.trace)
        part_probe(part);
    tracer.set_enabled(false);

    if (!opt_.trace) {
        const std::size_t n = plain_.rounds();
        rep_.metric("setup_s", setup_s, "s", kSetupReps);
        rep_.metric("round_s", median(times.plain.seconds), "s", n);
        rep_.note(describe("round_s", times.plain.seconds));
        rep_.metric("reorder_s", plain_.median("reorder_s"), "s", n);
        rep_.metric("avg_gap_ratio", geomean_of_logs(log_ratio_), "ratio",
                    log_ratio_.size());
        rep_.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    } else {
        const Samples& s = traced_;
        const std::size_t n = s.rounds();
        rep_.metric("gen.make_s", median(gen_s), "s", gen_s.size());
        rep_.metric("graph.apply_s", s.median("graph.apply_s"), "s", n);
        for (const auto& scheme : kSchemes) {
            const double t = s.median("order." + scheme + "_s");
            rep_.metric("order." + scheme + "_s", t, "s", n);
            rep_.metric("order." + scheme + ".speedup",
                        t > 0 ? one_thread_s_[scheme] / t : 0.0, "ratio", 1);
        }
        for (const auto& [scheme, logs] : log_gap_)
            rep_.metric("la.avg_gap." + scheme, geomean_of_logs(logs), "ids",
                        logs.size());
        rep_.metric("part.kway_s", part.median("part.kway_s"), "s", 1);
        rep_.metric("part.nd_s", part.median("part.nd_s"), "s", 1);
        report_trace_metrics(opt_, rep_, times);
    }
    rep_.metric("order.fallbacks", static_cast<double>(fallbacks_), "count",
                1);
}

} // namespace

void
run_reorder_heavy(const Options& opt, Report& rep)
{
    ReorderHeavy(opt, rep).run();
}

} // namespace perfbench
