#include "sim/profile/profile.hh"

namespace aosd
{

ProfNode *
ProfNode::child(const char *child_name)
{
    for (auto &c : children)
        if (c->name == child_name)
            return c.get();
    auto node = std::make_unique<ProfNode>();
    node->name = child_name;
    node->parent = this;
    children.push_back(std::move(node));
    return children.back().get();
}

const ProfNode *
ProfNode::find(const std::string &child_name) const
{
    for (const auto &c : children)
        if (c->name == child_name)
            return c.get();
    return nullptr;
}

Cycles
ProfNode::totalCycles() const
{
    Cycles total = selfCycles;
    for (const auto &c : children)
        total += c->totalCycles();
    return total;
}

Json
ProfNode::toJson() const
{
    Json out = Json::object();
    out.set("self_cycles", Json(selfCycles));
    out.set("total_cycles", Json(totalCycles()));
    out.set("count", Json(entries));
    if (spans.count() > 0) {
        out.set("p50_cycles", Json(spans.p50()));
        out.set("p90_cycles", Json(spans.p90()));
        out.set("p99_cycles", Json(spans.p99()));
    }
    if (!children.empty()) {
        Json kids = Json::object();
        for (const auto &c : children)
            kids.set(c->name, c->toJson());
        out.set("children", std::move(kids));
    }
    return out;
}

Profiler &
Profiler::instance()
{
    thread_local Profiler profiler;
    return profiler;
}

void
Profiler::enable()
{
    clear();
    setObserving(observeProfile, true);
}

void
Profiler::clear()
{
    rootNode.children.clear();
    rootNode.selfCycles = 0;
    rootNode.entries = 0;
    rootNode.spans.reset();
    cur = &rootNode;
    attributed = 0;
    ++generation;
}

void
Profiler::addLeafCycles(const char *leaf, Cycles c)
{
    if (!profilerEnabled())
        return;
    ProfNode *node = cur->child(leaf);
    node->selfCycles += c;
    node->entries += 1;
    node->spans.sample(c);
    attributed += c;
}

const ProfNode *
Profiler::node(const std::vector<std::string> &path) const
{
    const ProfNode *n = &rootNode;
    for (const std::string &name : path) {
        n = n->find(name);
        if (!n)
            return nullptr;
    }
    return n;
}

namespace
{

Cycles
sumSelf(const ProfNode &n)
{
    Cycles total = n.selfCycles;
    for (const auto &c : n.children)
        total += sumSelf(*c);
    return total;
}

void
collapse(const ProfNode &n, const std::string &stack, std::string &out)
{
    if (n.selfCycles > 0) {
        out += stack.empty() ? "(unattributed)" : stack;
        out += ' ';
        out += std::to_string(n.selfCycles);
        out += '\n';
    }
    for (const auto &c : n.children) {
        std::string frame =
            stack.empty() ? c->name : stack + ';' + c->name;
        collapse(*c, frame, out);
    }
}

} // namespace

Cycles
Profiler::sumOfLeaves() const
{
    return sumSelf(rootNode);
}

Json
Profiler::toJson() const
{
    return rootNode.toJson();
}

std::string
Profiler::collapsedStacks(const std::string &prefix) const
{
    std::string out;
    collapse(rootNode, prefix, out);
    return out;
}

ProfNode *
Profiler::push(const char *name)
{
    cur = cur->child(name);
    cur->entries += 1;
    return cur;
}

void
Profiler::pop(ProfNode *node, Cycles entry_attributed,
              std::uint64_t entry_generation)
{
    // The tree was cleared while this scope was alive: its node is
    // gone; detach without touching freed memory.
    if (entry_generation != generation)
        return;
    node->spans.sample(attributed - entry_attributed);
    cur = node->parent ? node->parent : &rootNode;
}

} // namespace aosd
