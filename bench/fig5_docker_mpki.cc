/**
 * @file
 * Fig. 5 reproduction: LLC misses-per-kilo-instruction of popular
 * Docker images, measured through K-LEB on the running containers
 * (paper section IV-B).
 *
 * The paper classifies images with MPKI < 10 as computation-
 * intensive and > 10 as memory-intensive (Muralidhara et al.):
 * interpreters (ruby/golang/python) land below 1, mysql/traefik/
 * ghost stay below 10, and the web servers (apache/nginx/tomcat)
 * land well above 10.  The ordering must also be invariant across
 * machines (the paper re-ran on an AWS Xeon).
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "experiments/experiments.hh"

using namespace klebsim;
using namespace klebsim::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Fig. 5: Docker image LLC MPKI via K-LEB "
           "(containerized, multi-PID traced)");

    Table table({"Image", "MPKI (i7-920)", "MPKI (Xeon 8259CL)",
                 "Class", "Expected class"});

    std::vector<std::pair<std::string, double>> i7_order;
    std::vector<std::pair<std::string, double>> xeon_order;
    bool all_classes_match = true;

    for (const experiments::ImageRow &row :
         experiments::fig5(args.quick, args.jobs)) {
        bool memory_intensive =
            row.mpkiI7 > workload::memoryIntensiveMpki;
        if (memory_intensive != row.expectMemoryIntensive)
            all_classes_match = false;
        i7_order.emplace_back(row.name, row.mpkiI7);
        xeon_order.emplace_back(row.name, row.mpkiXeon);
        table.addRow({row.name, toFixed(row.mpkiI7, 2),
                      toFixed(row.mpkiXeon, 2),
                      memory_intensive ? "memory-intensive"
                                       : "computation-intensive",
                      row.expectMemoryIntensive
                          ? "memory-intensive"
                          : "computation-intensive"});
    }
    table.print();

    // Cross-machine ordering invariance (paper's AWS validation).
    auto rank = [](std::vector<std::pair<std::string, double>> v) {
        std::sort(v.begin(), v.end(), [](auto &a, auto &b) {
            return a.second < b.second;
        });
        std::vector<std::string> names;
        for (auto &p : v)
            names.push_back(p.first);
        return names;
    };
    bool same_order = rank(i7_order) == rank(xeon_order);
    std::printf("\nClassification matches the paper: %s\n",
                all_classes_match ? "yes" : "NO");
    std::printf("MPKI ordering identical on both machines "
                "(paper's AWS check): %s\n",
                same_order ? "yes" : "NO");
    if (args.csv) {
        std::printf("\n");
        table.printCsv();
    }
    return 0;
}
