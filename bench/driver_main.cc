/**
 * @file
 * The main of `paper`, which regenerates the paper's figures, tables
 * and ablations in one process:
 *
 *   paper [NAME...] [--json PATH]
 *
 * runs the named artifacts of artifacts() in the order given, or all
 * 14 in artifacts() order when no name is given, and prints each
 * one's text. `--json PATH` (or `--json=PATH`) also writes the
 * artifact's JSON dump and needs exactly one artifact to run. The
 * thread pool takes HIGHLIGHT_THREADS or the hardware concurrency. An
 * unknown name or argument, a missing, empty or repeated --json value
 * and a bad HIGHLIGHT_THREADS are fatal before any artifact runs:
 * paper prints the reason on stderr and exits with code 1, so a typo
 * never runs another configuration.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "artifacts.hh"
#include "common/logging.hh"
#include "runtime/thread_pool.hh"

namespace
{

using namespace highlight;

struct PaperArgs
{
    std::vector<const Artifact *> artifacts; ///< In the order to run.
    std::string json_path;                   ///< "" = no JSON dump.
};

const Artifact *
findArtifact(std::string_view name)
{
    for (const Artifact &a : artifacts()) {
        if (name == a.name)
            return &a;
    }
    return nullptr;
}

PaperArgs
parseArgs(int argc, char **argv)
{
    PaperArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const std::string_view name = arg.substr(0, arg.find('='));
        if (name == "--json") {
            // An empty value is fatal below, so a set path means --json
            // was given.
            if (!args.json_path.empty())
                fatal("--json given twice");
            if (name.size() < arg.size())
                args.json_path = arg.substr(name.size() + 1);
            else if (i + 1 < argc)
                args.json_path = argv[++i];
            if (args.json_path.empty())
                fatal("--json requires a value");
        } else if (const Artifact *artifact = findArtifact(arg)) {
            args.artifacts.push_back(artifact);
        } else if (arg.substr(0, 1) == "-") {
            fatal(msgOf("unknown argument ", arg));
        } else {
            fatal(msgOf("no artifact named ", arg));
        }
    }
    if (args.artifacts.empty()) {
        for (const Artifact &a : artifacts())
            args.artifacts.push_back(&a);
    }
    if (!args.json_path.empty() && args.artifacts.size() != 1)
        fatal(msgOf("--json needs exactly one artifact, got ",
                    args.artifacts.size()));
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const PaperArgs args = parseArgs(argc, argv);
        // Resolve HIGHLIGHT_THREADS now, so a bad value is fatal for
        // every artifact, not only for those that reach the pool.
        ThreadPool::global();
        for (const Artifact *artifact : args.artifacts) {
            const ArtifactReport report = artifact->run();
            std::cout << report.text << std::flush;
            if (!args.json_path.empty()) {
                std::ofstream out(args.json_path, std::ios::trunc);
                out << report.json;
                out.close();
                if (!out)
                    fatal(msgOf("cannot write ", args.json_path));
            }
        }
    } catch (const FatalError &e) {
        std::cerr << "paper: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
