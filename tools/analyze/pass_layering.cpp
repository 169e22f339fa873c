// Layering DAG: the declared module dependency order, enforced over the
// real include graph.
//
//   util < {sim} < obs < {dlt, exec} < crypto < mech < protocol < agents
//
// expressed as an explicit allowed-deps table (see default_config) because
// the order is not total: sim and exec are incomparable, baseline sits off
// to the side. Two findings:
//   * layering-dag   — an include edge, or a module-qualified name
//     (`sim::Simulator`), whose target module is not in the file's allowed
//     set (path-prefix exceptions let protocol/drivers/ and
//     protocol/detail/ reach sim/exec). The name check keeps the sans-I/O
//     protocol core from naming the sim layer even through a header it may
//     include;
//   * include-cycle  — a cycle in the file-level quoted-include graph
//     (reported once, anchored at the smallest path).
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/passes.hpp"

namespace dlsbl::analyze {
namespace {

const std::set<std::string>* exception_extra(const LayeringConfig& config,
                                             const std::string& path) {
    for (const LayeringException& e : config.exceptions) {
        if (path.rfind(e.path_prefix, 0) == 0) return &e.extra;
    }
    return nullptr;
}

}  // namespace

std::vector<Finding> pass_layering(const Program& program,
                                   const LayeringConfig& config) {
    std::vector<Finding> findings;

    // Module-DAG violations over resolved include edges and module-qualified
    // names.
    for (const auto& [path, model] : program.files) {
        const std::string from = module_of(path);
        if (from.empty()) continue;  // tools/tests are DAG clients
        const auto allowed_it = config.allowed.find(from);
        const std::set<std::string>* extra = exception_extra(config, path);
        auto check = [&](const std::string& to, std::size_t line,
                         const std::string& via) {
            if (to.empty() || to == from) return;
            if ((allowed_it != config.allowed.end() &&
                 allowed_it->second.count(to) > 0) ||
                (extra != nullptr && extra->count(to) > 0)) {
                return;
            }
            Finding f;
            f.pass = kPassLayering;
            f.file = path;
            f.line = line;
            f.symbol = from + " -> " + to;
            f.message = "module '" + from + "' may not depend on '" + to +
                        "' (via " + via + ")";
            findings.push_back(std::move(f));
        };
        for (const IncludeRef& inc : model.includes) {
            const std::string target = resolve_include(program, path, inc.path);
            if (target.empty()) continue;  // not part of the program
            check(module_of(target), inc.line,
                  "#include \"" + inc.path + "\"");
        }
        for (const auto& [ref, line] : model.qualified_refs) {
            const std::string head = ref.substr(0, ref.find("::"));
            if (config.allowed.count(head) == 0) continue;  // not a module
            check(head, line, "'" + ref + "'");
        }
    }

    // File-level include cycles. Build resolved edges once, then DFS with
    // colors; each cycle is keyed by its rotated-to-smallest form so it is
    // reported exactly once.
    std::map<std::string, std::vector<std::pair<std::string, std::size_t>>>
        edges;
    for (const auto& [path, model] : program.files) {
        for (const IncludeRef& inc : model.includes) {
            const std::string target = resolve_include(program, path, inc.path);
            if (!target.empty() && target != path) {
                edges[path].emplace_back(target, inc.line);
            }
        }
    }
    std::set<std::string> reported;
    std::set<std::string> done;  // fully explored, no cycle through here
    for (const auto& [start, _] : edges) {
        if (done.count(start) > 0) continue;
        std::vector<std::string> stack = {start};
        std::vector<std::size_t> child(1, 0);
        std::set<std::string> on_path = {start};
        while (!stack.empty()) {
            const std::string& cur = stack.back();
            const auto it = edges.find(cur);
            if (it == edges.end() || child.back() >= it->second.size()) {
                done.insert(cur);
                on_path.erase(cur);
                stack.pop_back();
                child.pop_back();
                continue;
            }
            const auto& [next, line] = it->second[child.back()];
            ++child.back();
            if (on_path.count(next) > 0) {
                // Cycle: the suffix of the stack from `next` onward.
                const auto begin =
                    std::find(stack.begin(), stack.end(), next);
                std::vector<std::string> cycle(begin, stack.end());
                const auto smallest =
                    std::min_element(cycle.begin(), cycle.end());
                std::rotate(cycle.begin(), smallest, cycle.end());
                std::string shape;
                for (const std::string& n : cycle) shape += n + " -> ";
                shape += cycle.front();
                if (reported.insert(shape).second) {
                    Finding f;
                    f.pass = kPassIncludeCycle;
                    f.file = cycle.front();
                    f.line = line;
                    f.symbol = cycle.front();
                    f.message = "include cycle: " + shape;
                    findings.push_back(std::move(f));
                }
                continue;
            }
            if (done.count(next) > 0) continue;
            stack.push_back(next);
            child.push_back(0);
            on_path.insert(next);
        }
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.symbol) <
                         std::tie(b.file, b.line, b.symbol);
              });
    return findings;
}

}  // namespace dlsbl::analyze
