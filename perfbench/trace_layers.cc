/**
 * @file
 * In-process half of the trace workloads. For each --periods value it
 * builds the session `existctl trace <app> --report --threads 1
 * --period-ms P` runs and prints one JSON line:
 *
 *   --mode virtual  Testbed::run as the CLI runs it: the exact coverage
 *                   and Wall accuracy behind its printed, rounded values.
 *   --mode layers   splitSession(): each module's calls timed back to
 *                   back, plus the synthesized behaviour report so
 *                   run.py can compare it with the CLI's.
 *
 * usage: perfbench_layers --app APP --periods P1,P2,... --mode MODE
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "workload/app_profile.h"

using namespace exist;
using namespace perfbench;

namespace {

/** The spec cmdTrace builds for `trace <app> --report --threads 1`. */
ExperimentSpec
cliSpec(const std::string &app, double period_ms)
{
    ExperimentSpec spec;
    spec.node.num_cores = 4;
    WorkloadSpec w{.app = app, .target = true};
    if (AppCatalog::find(app).is_service)
        w.closed_clients = 10;
    spec.workloads.push_back(std::move(w));
    spec.backend = "EXIST";
    spec.session.period =
        static_cast<Cycles>(period_ms * static_cast<double>(kCyclesPerMs));
    spec.session.budget_mb = 500;
    spec.decode = true;
    spec.decode_threads = 1;
    return spec;
}

std::vector<double>
parsePeriods(const std::string &list)
{
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        out.push_back(std::atof(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
    }
    return out;
}

int
usage()
{
    std::fputs("usage: perfbench_layers --app APP --periods P1,P2,... "
               "--mode virtual|layers\n",
               stderr);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string app, mode;
    std::vector<double> periods;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string arg = argv[i];
        if (arg == "--app")
            app = argv[i + 1];
        else if (arg == "--periods")
            periods = parsePeriods(argv[i + 1]);
        else if (arg == "--mode")
            mode = argv[i + 1];
        else
            return usage();
    }
    if (app.empty() || periods.empty() ||
        (mode != "virtual" && mode != "layers"))
        return usage();

    // Build the binary before any timed call, so its generation stays
    // out of the Oracle time (the CLI pays it once per invocation,
    // which tools.residual_s picks up).
    Testbed::binaryForApp(app);

    for (double period : periods) {
        ExperimentSpec spec = cliSpec(app, period);
        JsonLine out;
        out.num("period_ms", period);
        if (mode == "virtual") {
            ExperimentResult r = Testbed::run(spec);
            out.count("insns", r.at(app).insns)
                .num("coverage", r.accuracy_coverage)
                .num("wall_accuracy", r.accuracy_wall);
        } else {
            LayerSample s = splitSession(spec, app, true);
            out.num("oracle_s", s.oracle_s)
                .num("exist_s", s.exist_s)
                .num("truth_s", s.truth_s)
                .num("decode_s", s.decode_s)
                .num("report_s", s.report_s)
                .count("truth_branches", s.truth_branches)
                .count("decoded_branches", s.decoded_branches)
                .count("context_switches", s.context_switches)
                .count("trace_bytes", s.trace_bytes)
                .count("msr_writes", s.msr_writes)
                .count("segments", s.segments)
                .count("memo_hits", s.memo_hits)
                .count("memo_misses", s.memo_misses)
                .count("insns", s.insns)
                .num("coverage", s.coverage)
                .num("wall_accuracy", s.wall_accuracy)
                .num("slowdown", s.slowdown)
                .text("report", s.report);
        }
        std::printf("%s\n", out.str().c_str());
        std::fflush(stdout);
    }
    return 0;
}
