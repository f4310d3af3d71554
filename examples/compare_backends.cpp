/**
 * @file
 * Backend comparison on one workload: run the same deterministic node
 * under Oracle, EXIST, StaSam, eBPF and NHT and print a side-by-side
 * of what each scheme costs and what it can see — the paper's Figure 1
 * in miniature.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/testbed.h"

using namespace exist;

int
main()
{
    printBanner("Tracing one MySQL-like service with every backend");

    TableWriter table({"Backend", "Throughput", "p99(us)", "SpaceMB",
                       "MSR writes", "ControlOps", "InstrTrace?"});

    ExperimentSpec base;
    base.node.num_cores = 4;
    WorkloadSpec w{.app = "ms", .target = true, .closed_clients = 10};
    base.workloads.push_back(std::move(w));
    base.session.period = secondsToCycles(0.3);
    base.warmup = secondsToCycles(0.06);

    ExperimentSpec oracle_spec = base;
    oracle_spec.backend = "Oracle";
    ExperimentResult oracle = Testbed::run(oracle_spec);

    for (const std::string backend :
         {"Oracle", "EXIST", "StaSam", "eBPF", "NHT"}) {
        ExperimentSpec spec = base;
        spec.backend = backend;
        spec.decode = backend == "EXIST" || backend == "NHT";
        ExperimentResult r = Testbed::run(spec);
        const AppResult &app = r.at("ms");
        double tput =
            oracle.at("ms").completed
                ? static_cast<double>(app.completed) /
                      static_cast<double>(oracle.at("ms").completed)
                : 1.0;
        table.row({backend, TableWriter::num(tput, 3),
                   TableWriter::num(app.latencies_us.percentile(99), 0),
                   TableWriter::mb(r.backend_stats.trace_real_bytes),
                   std::to_string(r.backend_stats.msr_writes),
                   std::to_string(r.backend_stats.control_ops),
                   spec.decode && r.decoded_branches > 0 ? "yes"
                                                         : "no"});
    }
    table.print();
    std::printf("\nEXIST is the only scheme combining instruction-level "
                "chronological traces with near-Oracle throughput and "
                "O(#cores) control operations.\n");
    return 0;
}
