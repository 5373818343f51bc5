/**
 * @file
 * `perfbench` — the repository benchmark's executable.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR --benchmark BENCHMARK.json [--tiny]
 *
 * Runs one workload (app-amortize, reorder-heavy, serve-mix), checks
 * its outputs, prints a metric table (median and sample count per
 * metric) and, as its last line, one JSON object with `correct`,
 * `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
 * are the end-to-end ones BENCHMARK.json lists; with `--trace 1` its
 * per-layer ones, which come from spans recorded around each layer
 * call.  A metric of a layer the workload does not exercise reads 0.
 *
 * Exit: 0 when a result was printed, 2 on bad arguments, 1 when the
 * workload could not run at all.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/** (name, unit) of every metric BENCHMARK.json lists under @p key. */
MetricList
listed_metrics(const std::string& benchmark_json, const std::string& key)
{
    const auto doc = graphorder::parse_json_file(benchmark_json);
    const auto* list = doc.find(key);
    if (!list || !list->is_array())
        throw std::runtime_error(benchmark_json + ": no " + key + " list");
    MetricList out;
    for (const auto& m : list->as_array()) {
        const auto* name = m.find("name");
        const auto* unit = m.find("unit");
        if (!name || !unit || !name->is_string() || !unit->is_string())
            throw std::runtime_error(benchmark_json + ": a " + key
                                     + " entry lacks a name or unit");
        out.emplace_back(name->as_string(), unit->as_string());
    }
    return out;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload app-amortize|reorder-heavy|"
                 "serve-mix --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR --benchmark BENCHMARK.json [--tiny]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    std::string benchmark_json;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--tiny") {
            opt.tiny = true;
            continue;
        }
        const char* v = value();
        if (!v)
            return usage(("missing value for " + a).c_str());
        char* end = nullptr;
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--work-dir")
            opt.work_dir = v;
        else if (a == "--benchmark")
            benchmark_json = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v, &end, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v, &end);
        else if (a == "--trace")
            opt.trace = std::strtol(v, &end, 10) != 0;
        else
            return usage(("unknown argument " + a).c_str());
        if (end && *end)
            return usage(("bad value for " + a).c_str());
    }
    if (opt.work_dir.empty() || benchmark_json.empty() || !(opt.seconds > 0))
        return usage("--work-dir, --benchmark and a positive --seconds are "
                     "required");

    using Runner = void (*)(const Options&, Report&);
    struct Workload
    {
        const char* name;
        Runner run;
        const char* threads;
    };
    const Workload workloads[] = {
        {"app-amortize", run_app_amortize, "4 (Louvain 1)"},
        {"reorder-heavy", run_reorder_heavy, "4"},
        {"serve-mix", run_serve_mix,
         "2 service workers x 2 scheme threads, 4 clients"},
    };
    const Workload* w = nullptr;
    for (const auto& c : workloads)
        if (opt.workload == c.name)
            w = &c;
    if (!w)
        return usage(("unknown workload " + opt.workload).c_str());

    Report rep;
    MetricList listed;
    try {
        listed = listed_metrics(benchmark_json,
                                opt.trace ? "per_layer" : "end_to_end");
        std::filesystem::create_directories(opt.work_dir);
        w->run(opt, rep);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }
    rep.print(opt, w->threads, listed);
    if (rep.abandoned_threads()) {
        std::fprintf(stderr, "perfbench: service connections that lost a "
                             "reply never drain; exiting without joining "
                             "their threads\n");
        std::fflush(nullptr);
        std::_Exit(0);
    }
    return 0;
}
