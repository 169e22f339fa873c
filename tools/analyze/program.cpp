#include "analyze/program.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "analyze/parser.hpp"

namespace dlsbl::analyze {
namespace {

namespace fs = std::filesystem;

bool has_cpp_extension(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

bool read_file(const fs::path& p, std::string* out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

std::string to_repo_relative(const fs::path& repo_root, const fs::path& p) {
    std::error_code ec;
    const fs::path rel = fs::relative(p, repo_root, ec);
    const fs::path& use = ec ? p : rel;
    return use.generic_string();
}

void parse_into(Program* program, std::string rel_path,
                const std::string& source) {
    FileModel model = parse_file(rel_path, source);
    program->files.emplace(std::move(rel_path), std::move(model));
}

}  // namespace

Program build_program_from_sources(
    const std::vector<std::pair<std::string, std::string>>& path_to_source) {
    Program program;
    for (const auto& [path, source] : path_to_source) {
        parse_into(&program, path, source);
    }
    return program;
}

Program build_program_tree(const std::string& repo_root,
                           const std::vector<std::string>& roots,
                           std::vector<BuildError>* errors,
                           const std::function<bool(const std::string&)>& skip) {
    Program program;
    const fs::path base(repo_root);
    auto skipped = [&](const std::string& rel) { return skip && skip(rel); };
    for (const std::string& root : roots) {
        const fs::path abs = base / root;
        std::error_code ec;
        if (fs::is_directory(abs, ec)) {
            // Collect-then-sort: directory_iterator order is
            // filesystem-dependent and the program must be deterministic.
            std::vector<fs::path> found;
            for (auto it = fs::recursive_directory_iterator(abs, ec);
                 !ec && it != fs::recursive_directory_iterator(); ++it) {
                if (it->is_regular_file() && has_cpp_extension(it->path())) {
                    found.push_back(it->path());
                }
            }
            std::sort(found.begin(), found.end());
            for (const fs::path& p : found) {
                const std::string rel = to_repo_relative(base, p);
                if (skipped(rel)) continue;
                std::string source;
                if (!read_file(p, &source)) {
                    errors->push_back({"io-error", rel, "unreadable file"});
                    continue;
                }
                parse_into(&program, rel, source);
            }
        } else if (fs::is_regular_file(abs, ec)) {
            if (skipped(root)) continue;
            std::string source;
            if (!read_file(abs, &source)) {
                errors->push_back({"io-error", root, "unreadable file"});
                continue;
            }
            parse_into(&program, root, source);
        } else {
            errors->push_back({"io-error", root, "no such file or directory"});
        }
    }
    // Close over quoted includes so headers outside the requested roots
    // (but inside the repo) still contribute symbol tables.
    bool grew = true;
    while (grew) {
        grew = false;
        std::vector<std::string> to_add;
        for (const auto& [path, model] : program.files) {
            for (const IncludeRef& inc : model.includes) {
                for (const std::string& candidate :
                     {inc.path, "src/" + inc.path}) {
                    if (program.files.count(candidate) > 0) break;
                    std::error_code file_ec;
                    if (fs::is_regular_file(base / candidate, file_ec)) {
                        to_add.push_back(candidate);
                        break;
                    }
                }
            }
        }
        std::sort(to_add.begin(), to_add.end());
        to_add.erase(std::unique(to_add.begin(), to_add.end()), to_add.end());
        for (const std::string& rel : to_add) {
            if (program.files.count(rel) > 0 || skipped(rel)) continue;
            std::string source;
            if (!read_file(base / rel, &source)) continue;
            parse_into(&program, rel, source);
            grew = true;
        }
    }
    return program;
}

std::string resolve_include(const Program& program, const std::string& includer,
                            const std::string& include) {
    // Project layout: quoted includes are written relative to src/ (or to
    // tools/ for tool-internal headers), so try the canonical prefixes
    // first, then sibling-relative as a fallback.
    const std::size_t slash = includer.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : includer.substr(0, slash + 1);
    const std::string candidates[] = {
        include,
        "src/" + include,
        "tools/" + include,
        dir + include,
    };
    for (const std::string& c : candidates) {
        if (program.files.count(c) > 0) return c;
    }
    return "";
}

CallIndex::CallIndex(const Program& program) {
    for (const auto& [path, model] : program.files) {
        for (const FunctionDef& fn : model.functions) {
            by_simple_name_[fn.name].push_back(all_.size());
            all_.push_back({&model, &fn});
        }
    }
}

std::vector<FnRef> CallIndex::resolve(const CallSite& call,
                                      const std::string& caller_class) const {
    std::vector<FnRef> out;
    const auto it = by_simple_name_.find(call.name);
    if (it == by_simple_name_.end()) return out;
    for (const std::size_t idx : it->second) {
        const FnRef& ref = all_[idx];
        if (call.member_call) {
            // Any method of any class with this name; free functions are
            // excluded (x.f() cannot reach them in this codebase's style).
            if (!ref.fn->class_name.empty()) out.push_back(ref);
            continue;
        }
        if (!call.qualifier.empty()) {
            // Suffix match: call `obs::now_ns()` reaches
            // `dlsbl::obs::now_ns`. Compare qualified = ...::qualifier::name.
            const std::string want = call.qualifier + "::" + call.name;
            const std::string& have = ref.fn->qualified;
            if (have == want ||
                (have.size() > want.size() &&
                 have.compare(have.size() - want.size(), want.size(), want) ==
                     0 &&
                 have.compare(have.size() - want.size() - 2, 2, "::") == 0)) {
                out.push_back(ref);
            }
            continue;
        }
        // Plain call: free functions, or implicit-this methods of the
        // caller's own class.
        if (ref.fn->class_name.empty() ||
            (!caller_class.empty() && ref.fn->class_name == caller_class)) {
            out.push_back(ref);
        }
    }
    return out;
}

}  // namespace dlsbl::analyze
