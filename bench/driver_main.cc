/**
 * @file
 * The main of every figure, table and ablation driver. CMake compiles
 * it once per artifact, with HIGHLIGHT_ARTIFACT set to the driver's
 * name. Every driver takes exactly three options:
 *
 *   --serial       run on one thread (same as --threads 1)
 *   --threads N    run on N threads, 1 <= N <= 4096 (or --threads=N)
 *   --json PATH    also write the artifact's JSON dump (or --json=PATH)
 *
 * Without --serial or --threads the pool takes HIGHLIGHT_THREADS or
 * the hardware concurrency. An unknown argument and a missing, empty
 * or repeated value are fatal: the driver prints the reason on stderr
 * and exits with code 1, so a typo never runs another configuration.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "artifacts.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "runtime/thread_pool.hh"

#ifndef HIGHLIGHT_ARTIFACT
#error "define HIGHLIGHT_ARTIFACT as the driver's name in artifacts()"
#endif

namespace
{

using namespace highlight;

struct DriverFlags
{
    int threads = 0;       ///< For setGlobalThreads; 0 = the default.
    std::string json_path; ///< "" = no JSON dump.
};

DriverFlags
parseFlags(int argc, char **argv)
{
    bool serial = false;
    std::string threads, json; // "" until given; an empty value is fatal
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--serial") {
            serial = true;
            continue;
        }
        const std::string_view name = arg.substr(0, arg.find('='));
        std::string *value = nullptr;
        if (name == "--threads")
            value = &threads;
        else if (name == "--json")
            value = &json;
        else
            fatal(msgOf("unknown argument ", arg));
        if (!value->empty())
            fatal(msgOf(name, " given twice"));
        if (name.size() < arg.size())
            *value = arg.substr(name.size() + 1);
        else if (i + 1 < argc)
            *value = argv[++i];
        if (value->empty())
            fatal(msgOf(name, " requires a value"));
    }

    DriverFlags flags;
    flags.json_path = json;
    if (!threads.empty()) {
        long long n = 0;
        if (!parsePositiveInt(threads.c_str(), 4096, &n))
            fatal(msgOf("--threads ", threads,
                        ": expected a positive integer <= 4096"));
        flags.threads = static_cast<int>(n);
    }
    if (serial) {
        if (flags.threads > 1)
            fatal(msgOf("--serial contradicts --threads ", flags.threads));
        flags.threads = 1;
    }
    return flags;
}

const Artifact &
findArtifact(const char *name)
{
    for (const Artifact &a : artifacts()) {
        if (std::strcmp(a.name, name) == 0)
            return a;
    }
    panic(msgOf("no artifact named ", name));
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Artifact &artifact = findArtifact(HIGHLIGHT_ARTIFACT);
        const DriverFlags flags = parseFlags(argc, argv);
        ThreadPool::setGlobalThreads(flags.threads);
        const ArtifactReport report = artifact.run();
        std::cout << report.text << std::flush;
        if (!flags.json_path.empty()) {
            std::ofstream out(flags.json_path, std::ios::trunc);
            out << report.json;
            out.close();
            if (!out)
                fatal(msgOf("cannot write ", flags.json_path));
        }
    } catch (const FatalError &e) {
        std::cerr << HIGHLIGHT_ARTIFACT << ": " << e.what() << "\n";
        return 1;
    }
    return 0;
}
