/**
 * @file
 * Self-test of the benchmark's correctness checking, per workload:
 *
 *  - the reference digest for seed 1 matches the committed golden, and
 *    a missing line or file is reported as such;
 *  - untraced and traced ops both match the reference bit for bit
 *    (so the traced recomposition returns the untraced results);
 *  - a corrupted result is counted as a failed op, exactly once per
 *    corrupted op.
 *
 *   perfbench_selftest GOLDEN_FILE
 */

#include <iostream>
#include <string>

#include "fingerprint.hh"
#include "harness.hh"
#include "runtime/thread_pool.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &workload, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL " << workload << ": " << what << "\n";
        ++failures;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc != 2) {
        std::cerr << "usage: perfbench_selftest GOLDEN_FILE\n";
        return 2;
    }
    highlight::ThreadPool::setGlobalThreads(2);
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name);
        wl->setup(1);
        std::string reference;
        expect(wl->buildReference(&reference), name,
               "reference sanity check");
        std::uint64_t golden = 0;
        expect(readGolden(argv[1], name, 1, &golden) == Golden::Found,
               name, "golden digest for seed 1 present");
        expect(golden == fnv1a(reference), name,
               "reference digest equals golden");
        expect(readGolden(argv[1], name, 0, &golden) == Golden::NoEntry,
               name, "a seed without a golden line has no entry");
        expect(readGolden("no/such/digests.txt", name, 1, &golden) ==
                   Golden::Unreadable,
               name, "a missing golden file is unreadable");

        LoopOptions opt;
        opt.seconds = 0.0;
        opt.min_ops = 3;
        opt.trace = true;
        const LoopResult clean = runLoop(*wl, reference, opt);
        expect(clean.attempted == 6 && clean.failed == 0, name,
               "untraced and traced ops match the reference");
        expect(clean.layers.size() == 3 &&
                   clean.layers.front().count(kPathMs) == 1,
               name, "traced ops report per-layer spans");

        opt.trace = false;
        int op = 0;
        opt.tamper = [&op](Workload &w) {
            if (op++ % 2 == 0)
                w.corruptLast();
        };
        const LoopResult tampered = runLoop(*wl, reference, opt);
        expect(tampered.attempted == 3 && tampered.failed == 2, name,
               "each corrupted op counts as one failure");
    }
    if (failures == 0)
        std::cout << "perfbench_selftest: all checks passed\n";
    return failures == 0 ? 0 : 1;
}
