// dlsbl_analyze — the repo's static analyzer (see passes.hpp).
//
// Usage:
//   dlsbl_analyze [--root DIR] [--facts FILE] [--json-out PATH]
//                 [--sarif-out PATH] [--timings] [--list-passes] [paths...]
//
// Paths are repo-relative files or directories (default: src tests bench
// examples tools). Exit codes: 0 clean, 1 findings, 2 usage/configuration
// error.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/passes.hpp"
#include "analyze/program.hpp"
#include "analyze/report.hpp"

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--root DIR] [--facts FILE] [--json-out PATH] "
                 "[--sarif-out PATH] [--timings] [--list-passes] "
                 "[paths...]\n",
                 argv0);
    return 2;
}

double ms_since(std::chrono::steady_clock::time_point start) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

bool write_artifact(const std::string& path, const std::string& doc,
                    const char* tag) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "dlsbl_analyze: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << doc;
    std::printf("%s %s\n", tag, path.c_str());
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    using dlsbl::analyze::Finding;

    std::string root = ".";
    std::string facts_path = "tools/analyze/dlsbl_analyze.facts";
    bool facts_path_explicit = false;
    std::string json_out;
    std::string sarif_out;
    bool timings = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--facts" && i + 1 < argc) {
            facts_path = argv[++i];
            facts_path_explicit = true;
        } else if (arg == "--json-out" && i + 1 < argc) {
            json_out = argv[++i];
        } else if (arg == "--sarif-out" && i + 1 < argc) {
            sarif_out = argv[++i];
        } else if (arg == "--timings") {
            timings = true;
        } else if (arg == "--list-passes") {
            for (const std::string& id : dlsbl::analyze::all_pass_ids()) {
                std::printf("%s\n", id.c_str());
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg.front() == '-') {
            std::fprintf(stderr, "dlsbl_analyze: unknown option '%s'\n",
                         argv[i]);
            return usage(argv[0]);
        } else {
            paths.emplace_back(arg);
        }
    }
    if (paths.empty()) paths = {"src", "tests", "bench", "examples", "tools"};

    dlsbl::analyze::Facts facts;
    {
        // path-append so an absolute --facts path is used as-is
        std::ifstream in(std::filesystem::path(root) / facts_path,
                         std::ios::binary);
        if (in) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            facts = dlsbl::analyze::parse_facts(buffer.str());
        } else if (facts_path_explicit) {
            std::fprintf(stderr, "dlsbl_analyze: cannot read facts file %s\n",
                         facts_path.c_str());
            return 2;
        }
    }
    if (!facts.errors.empty()) {
        for (const std::string& error : facts.errors) {
            std::fprintf(stderr, "dlsbl_analyze: %s\n", error.c_str());
        }
        return 2;
    }

    auto start = std::chrono::steady_clock::now();
    std::vector<dlsbl::analyze::BuildError> build_errors;
    const dlsbl::analyze::Program program = dlsbl::analyze::build_program_tree(
        root, paths, &build_errors,
        [&facts](const std::string& path) { return facts.skips(path); });
    if (timings) {
        std::printf("ANALYZE_TIMING parse %.1fms (%zu files)\n",
                    ms_since(start), program.files.size());
    }

    std::vector<Finding> findings;
    for (const dlsbl::analyze::BuildError& e : build_errors) {
        Finding f;
        f.pass = e.pass;
        f.file = e.file;
        f.message = e.message;
        findings.push_back(std::move(f));
    }

    dlsbl::analyze::AnalyzeConfig config = dlsbl::analyze::default_config();
    facts.configure(&config.taint);
    for (const dlsbl::analyze::PassRun& pass : dlsbl::analyze::pass_runs()) {
        start = std::chrono::steady_clock::now();
        std::vector<Finding> found = pass.run(program, config);
        if (timings) {
            std::printf("ANALYZE_TIMING %s %.1fms (%zu findings)\n", pass.name,
                        ms_since(start), found.size());
        }
        findings.insert(findings.end(),
                        std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
    }

    dlsbl::analyze::Filtered filtered =
        dlsbl::analyze::apply_facts(facts, program, std::move(findings));
    const bool clean = dlsbl::analyze::print_report(
        filtered.kept, filtered.suppressed, program.files.size(), std::cout);

    // Stale entries are surfaced, but a clean tree still passes: an entry
    // may cover an optional build configuration.
    for (const dlsbl::analyze::FactEntry* entry : facts.unused()) {
        std::fprintf(stderr,
                     "dlsbl_analyze: note: facts line %zu (%s %s) matched "
                     "nothing\n",
                     entry->line, entry->kind.c_str(), entry->glob.c_str());
    }

    if (!json_out.empty() &&
        !write_artifact(json_out,
                        dlsbl::analyze::report_json(filtered.kept,
                                                    filtered.suppressed,
                                                    program.files.size()),
                        "ANALYZE_JSON")) {
        return 2;
    }
    if (!sarif_out.empty() &&
        !write_artifact(sarif_out, dlsbl::analyze::report_sarif(filtered.kept),
                        "ANALYZE_SARIF")) {
        return 2;
    }
    return clean ? 0 : 1;
}
