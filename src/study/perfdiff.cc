#include "study/perfdiff.hh"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace aosd
{

namespace
{

void
flattenInto(const Json &node, const std::string &prefix,
            std::vector<PerfLeaf> &out)
{
    switch (node.kind()) {
      case Json::Kind::Number:
        // dump() writes NaN and inf as null, which carries no figure;
        // skip them here too so a document diffs as its dump would.
        if (std::isfinite(node.asNumber()))
            out.push_back({prefix, node.asNumber()});
        return;

      case Json::Kind::Object:
        for (const auto &[key, value] : node.items())
            flattenInto(value,
                        prefix.empty() ? key : prefix + "." + key,
                        out);
        return;

      case Json::Kind::Array:
        for (std::size_t i = 0; i < node.size(); ++i)
            flattenInto(node.at(i),
                        (prefix.empty() ? "" : prefix + ".") +
                            std::to_string(i),
                        out);
        return;

      default: // strings, bools, nulls carry no figures
        return;
    }
}

const char *
kindName(Json::Kind kind)
{
    switch (kind) {
      case Json::Kind::Null:
        return "null";
      case Json::Kind::Bool:
        return "bool";
      case Json::Kind::Number:
        return "number";
      case Json::Kind::String:
        return "string";
      case Json::Kind::Array:
        return "array";
      case Json::Kind::Object:
        return "object";
    }
    return "?";
}

/** An object's members sorted by key, so each lookup is O(log n) and
 *  comparing two n-key objects is not O(n^2). */
using KeyIndex = std::vector<std::pair<std::string_view, const Json *>>;

KeyIndex
indexByKey(const Json &obj)
{
    KeyIndex index;
    index.reserve(obj.size());
    for (const auto &[key, value] : obj.items())
        index.emplace_back(key, &value);
    std::ranges::sort(index, {}, &KeyIndex::value_type::first);
    return index;
}

const Json *
lookup(const KeyIndex &index, std::string_view key)
{
    auto it = std::lower_bound(
        index.begin(), index.end(), key,
        [](const auto &member, std::string_view k) {
            return member.first < k;
        });
    return it != index.end() && it->first == key ? it->second : nullptr;
}

bool
findMismatch(const Json &oldNode, const Json &newNode,
             const std::string &path, StructuralMismatch &out)
{
    auto report = [&](std::string description) {
        out.found = true;
        out.path = path;
        out.description = std::move(description);
        return true;
    };

    if (oldNode.kind() != newNode.kind())
        return report(std::string(kindName(oldNode.kind())) + " -> " +
                      kindName(newNode.kind()));

    if (oldNode.isObject()) {
        KeyIndex oldKeys = indexByKey(oldNode);
        KeyIndex newKeys = indexByKey(newNode);
        for (const auto &[key, value] : oldNode.items()) {
            (void)value;
            if (!lookup(newKeys, key))
                return report("key '" + key +
                              "' missing from the new document");
        }
        for (const auto &[key, value] : newNode.items()) {
            (void)value;
            if (!lookup(oldKeys, key))
                return report("key '" + key +
                              "' only in the new document");
        }
        for (const auto &[key, value] : oldNode.items())
            if (findMismatch(value, *lookup(newKeys, key),
                             path.empty() ? key : path + "." + key,
                             out))
                return true;
        return false;
    }

    if (oldNode.isArray()) {
        if (oldNode.size() != newNode.size())
            return report("array length " +
                          std::to_string(oldNode.size()) + " -> " +
                          std::to_string(newNode.size()));
        for (std::size_t i = 0; i < oldNode.size(); ++i)
            if (findMismatch(oldNode.at(i), newNode.at(i),
                             (path.empty() ? "" : path + ".") +
                                 std::to_string(i),
                             out))
                return true;
        return false;
    }

    return false; // same-kind scalars differ in value, not shape
}

/** The leaf key of a dotted path ("a.b.p99" -> "p99"). */
std::string
lastSegment(const std::string &path)
{
    std::size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(dot + 1);
}

double
tolForPath(const std::string &path, double rel_tol,
           const KeyTolerances &key_tols)
{
    if (key_tols.empty())
        return rel_tol;
    std::string key = lastSegment(path);
    for (const auto &[k, tol] : key_tols)
        if (k == key)
            return tol;
    return rel_tol;
}

} // namespace

std::vector<PerfLeaf>
flattenNumericLeaves(const Json &doc)
{
    std::vector<PerfLeaf> out;
    flattenInto(doc, "", out);
    return out;
}

PerfDiff
diffPerfDocs(const Json &old_doc, const Json &new_doc, double rel_tol,
             double abs_tol, const KeyTolerances &key_tols)
{
    std::vector<PerfLeaf> old_leaves = flattenNumericLeaves(old_doc);
    std::vector<PerfLeaf> new_leaves = flattenNumericLeaves(new_doc);

    std::unordered_map<std::string, double> new_by_path;
    for (const PerfLeaf &leaf : new_leaves)
        new_by_path.emplace(leaf.path, leaf.value);

    PerfDiff diff;
    std::unordered_set<std::string> seen;
    for (const PerfLeaf &leaf : old_leaves) {
        seen.insert(leaf.path);
        auto it = new_by_path.find(leaf.path);
        PerfDelta d;
        d.path = leaf.path;
        d.oldValue = leaf.value;
        if (it == new_by_path.end()) {
            d.kind = PerfDelta::Kind::Missing;
            ++diff.regressions;
            diff.deltas.push_back(d);
            continue;
        }
        d.newValue = it->second;
        ++diff.compared;
        double denom =
            std::max(std::fabs(d.oldValue), std::fabs(d.newValue));
        double abs_delta = std::fabs(d.newValue - d.oldValue);
        d.relDelta = denom > 0 ? abs_delta / denom : 0;
        bool within =
            abs_delta <= abs_tol ||
            d.relDelta <= tolForPath(leaf.path, rel_tol, key_tols);
        d.kind = within ? PerfDelta::Kind::Within
                        : PerfDelta::Kind::Changed;
        if (!within)
            ++diff.regressions;
        diff.deltas.push_back(d);
    }
    for (const PerfLeaf &leaf : new_leaves) {
        if (seen.count(leaf.path))
            continue;
        PerfDelta d;
        d.kind = PerfDelta::Kind::Added;
        d.path = leaf.path;
        d.newValue = leaf.value;
        ++diff.regressions;
        diff.deltas.push_back(d);
    }
    return diff;
}

StructuralMismatch
firstStructuralMismatch(const Json &old_doc, const Json &new_doc)
{
    StructuralMismatch out;
    findMismatch(old_doc, new_doc, "", out);
    return out;
}

} // namespace aosd
