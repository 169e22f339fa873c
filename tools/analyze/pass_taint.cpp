// Determinism taint: which functions can observe nondeterminism, and does
// any of them live in (or get called from) protocol-artifact code?
//
// Seeds: direct source hits recorded by the parser (outside the facts
// file's `determinism` file globs), plus iteration over a container the
// program-wide table knows to be unordered. Propagation runs the call graph
// BACKWARDS to a fixpoint: a caller of a tainted function is tainted.
// Facts-file `sanitize` globs cut taint at functions whose nondeterminism
// is justified (seeded RNG wrappers, env-var tuning knobs) — the cut
// removes both the seed and the propagation through the function. The
// sources themselves are reported at their sites by the per-file
// `determinism` rule (pass_file.cpp).
#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/passes.hpp"

namespace dlsbl::analyze {
namespace {

bool under_any(const std::string& path,
               const std::vector<std::string>& prefixes) {
    for (const std::string& p : prefixes) {
        if (path.rfind(p, 0) == 0) return true;
    }
    return false;
}

bool matches_any(const std::string& path,
                 const std::vector<std::string>& globs) {
    for (const std::string& glob : globs) {
        if (glob_match(glob, path)) return true;
    }
    return false;
}

struct Node {
    const FileModel* file;
    const FunctionDef* fn;
    std::string seed;  // why this node is directly tainted, "" if only via calls
};

}  // namespace

bool TaintConfig::sanitizes(const FunctionDef& fn) const {
    return matches_any(fn.qualified, sanitized);
}

std::vector<Finding> pass_taint(const Program& program,
                                const TaintConfig& config) {
    // Program-wide unordered-container name table. Names are matched
    // without class context (the parser's receiver extraction is nominal),
    // so an ordered and an unordered container sharing a name would both
    // flag — acceptable over-approximation, none exist in-tree.
    std::set<std::string> unordered_names;
    for (const auto& [path, model] : program.files) {
        for (const ContainerDecl& c : model.containers) {
            if (c.unordered) unordered_names.insert(c.name);
        }
    }

    CallIndex index(program);
    std::vector<Node> nodes;
    std::map<const FunctionDef*, std::size_t> node_of;
    for (const FnRef& ref : index.all()) {
        node_of[ref.fn] = nodes.size();
        nodes.push_back({ref.file, ref.fn, ""});
    }

    // Reverse call edges: callee -> callers.
    std::vector<std::vector<std::size_t>> callers(nodes.size());
    for (std::size_t caller = 0; caller < nodes.size(); ++caller) {
        for (const CallSite& call : nodes[caller].fn->calls) {
            for (const FnRef& callee :
                 index.resolve(call, nodes[caller].fn->class_name)) {
                callers[node_of[callee.fn]].push_back(caller);
            }
        }
    }

    // Seeds.
    std::vector<bool> tainted(nodes.size(), false);
    std::deque<std::size_t> queue;
    std::vector<std::size_t> via(nodes.size(), SIZE_MAX);  // taint provenance
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        Node& n = nodes[i];
        if (config.sanitizes(*n.fn)) continue;
        const bool exempt = matches_any(n.file->path, config.source_exempt);
        if (!exempt && !n.fn->sources.empty()) {
            n.seed = n.fn->sources.front().what;
        }
        if (n.seed.empty()) {
            for (const IterSite& it : n.fn->iterations) {
                if (unordered_names.count(it.receiver) > 0) {
                    n.seed = "unordered iteration over '" + it.receiver + "'";
                    break;
                }
            }
        }
        if (!n.seed.empty()) {
            tainted[i] = true;
            queue.push_back(i);
        }
    }

    // Backwards fixpoint.
    while (!queue.empty()) {
        const std::size_t cur = queue.front();
        queue.pop_front();
        for (const std::size_t caller : callers[cur]) {
            if (tainted[caller]) continue;
            if (config.sanitizes(*nodes[caller].fn)) continue;
            tainted[caller] = true;
            via[caller] = cur;
            queue.push_back(caller);
        }
    }

    // Findings: tainted functions defined in protected files. Report each
    // with its seed chain so the finding is actionable without re-running.
    std::vector<Finding> findings;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!tainted[i]) continue;
        const Node& n = nodes[i];
        if (!under_any(n.file->path, config.protected_prefixes)) continue;
        Finding f;
        f.pass = kPassTaint;
        f.file = n.file->path;
        f.line = n.fn->line;
        f.symbol = n.fn->qualified;
        std::vector<std::string> chain = {n.fn->qualified};
        std::size_t walk = i;
        while (via[walk] != SIZE_MAX) {
            walk = via[walk];
            chain.push_back(nodes[walk].fn->qualified);
        }
        f.message = "nondeterminism reaches protocol code: " +
                    nodes[walk].seed + " in " + nodes[walk].fn->qualified;
        if (chain.size() > 1) {
            std::string path = "call chain:";
            for (const std::string& hop : chain) path += " " + hop;
            f.notes.push_back(path);
        }
        findings.push_back(std::move(f));
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.symbol) <
                         std::tie(b.file, b.line, b.symbol);
              });
    return findings;
}

}  // namespace dlsbl::analyze
