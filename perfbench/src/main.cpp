// capi_perfbench: runs one benchmark workload and writes its raw samples,
// counts, check outcomes and spans as JSON. run.py builds this program,
// runs it and summarizes the file; see README.md.
//
//   capi_perfbench --workload refine|overhead|adapt --seed N --seconds S
//                  --trace 0|1 --out FILE
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: capi_perfbench --workload refine|overhead|adapt "
                 "--seed N --seconds S --trace 0|1 --out FILE\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") options.workload = value;
        else if (flag == "--seed") options.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds") options.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace") options.trace = std::strcmp(value, "1") == 0;
        else if (flag == "--out") options.out = value;
        else return usage();
    }
    if (argc % 2 == 0 || options.out.empty() || !(options.seconds > 0.0)) {
        return usage();
    }
    perfbench::Tracer tracer;
    tracer.setEnabled(options.trace);
    perfbench::Result result;
    try {
        if (options.workload == "refine") {
            perfbench::runRefine(options, tracer, result);
        } else if (options.workload == "overhead") {
            perfbench::runOverhead(options, tracer, result);
        } else if (options.workload == "adapt") {
            perfbench::runAdapt(options, tracer, result);
        } else {
            return usage();
        }
        result.set("peak_rss_mb", perfbench::peakRssMb());
        result.writeJson(options.out, options, tracer);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "capi_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
