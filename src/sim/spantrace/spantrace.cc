#include "sim/spantrace/spantrace.hh"

namespace aosd
{

Json
SpanNode::toJson() const
{
    Json out = Json::object();
    out.set("name", Json(name));
    out.set("cycles", Json(cycles));
    Json ctrs = Json::object();
    for (std::size_t i = 0; i < numHwCounters; ++i) {
        HwCounter c = static_cast<HwCounter>(i);
        if (counter(c))
            ctrs.set(counterName(c), Json(counter(c)));
    }
    if (!ctrs.items().empty())
        out.set("counters", ctrs);
    if (!children.empty()) {
        Json kids = Json::array();
        for (const SpanNode &child : children)
            kids.push(child.toJson());
        out.set("spans", kids);
    }
    return out;
}

const Histogram *
SpanSession::find(const std::string &name) const
{
    for (const auto &[hist_name, hist] : hists)
        if (hist_name == name)
            return &hist;
    return nullptr;
}

SpanTracer &
SpanTracer::instance()
{
    static thread_local SpanTracer tracer;
    return tracer;
}

void
SpanTracer::enable(std::size_t capacity)
{
    session_ = SpanSession{};
    stack_.clear();
    requestRoot_ = SpanNode{};
    capacity_ = capacity;
    armed_ = true;
    ++gen_;
    setObserving(observeSpans, false);
}

void
SpanTracer::disable()
{
    armed_ = false;
    stack_.clear();
    ++gen_;
    setObserving(observeSpans, false);
}

void
SpanTracer::beginRequest(const char *name, std::uint64_t id,
                         Cycles now)
{
    if (!armed_)
        return;
    if (spantraceEnabled())
        endRequest(now);
    requestRoot_ = SpanNode{};
    requestRoot_.name = name;
    requestId_ = id;
    stack_.clear();
    stack_.push_back(
        {&requestRoot_, now, HwCounters::instance().snapshot(), false});
    ++gen_;
    setObserving(observeSpans, true);
}

void
SpanTracer::endRequest(Cycles now)
{
    if (!spantraceEnabled())
        return;
    if (stack_.empty()) {
        setObserving(observeSpans, false);
        return;
    }
    while (!stack_.empty())
        closeTop(now);
    setObserving(observeSpans, false);
    ++gen_;

    Histogram *hist = nullptr;
    for (auto &[name, h] : session_.hists)
        if (name == requestRoot_.name)
            hist = &h;
    if (!hist) {
        session_.hists.emplace_back(requestRoot_.name, Histogram{});
        hist = &session_.hists.back().second;
    }
    hist->sample(requestRoot_.cycles);

    if (session_.requests.size() < capacity_)
        session_.requests.push_back(
            {requestId_, std::move(requestRoot_)});
    else
        ++session_.dropped;
    requestRoot_ = SpanNode{};
}

void
SpanTracer::closeTop(Cycles now)
{
    Open &open = stack_.back();
    if (open.group) {
        Cycles total = 0;
        for (const SpanNode &child : open.node->children)
            total += child.cycles;
        open.node->cycles = total;
    } else {
        open.node->cycles = now >= open.start ? now - open.start : 0;
    }
    CounterSet delta =
        HwCounters::instance().snapshot().delta(open.counters);
    if (delta != CounterSet{})
        open.node->counters = std::make_shared<const CounterSet>(delta);
    stack_.pop_back();
}

SpanNode *
SpanTracer::push(const char *name, Cycles now)
{
    if (!spantraceEnabled())
        return nullptr;
    SpanNode *parent = stack_.back().node;
    parent->children.emplace_back();
    SpanNode *node = &parent->children.back();
    node->name = name;
    stack_.push_back(
        {node, now, HwCounters::instance().snapshot(), false});
    return node;
}

void
SpanTracer::pop(SpanNode *node, Cycles now, std::uint64_t gen)
{
    if (gen != gen_ || !spantraceEnabled())
        return;
    while (stack_.size() > 1) {
        SpanNode *top = stack_.back().node;
        closeTop(now);
        if (top == node)
            return;
    }
}

SpanNode *
SpanTracer::pushGroup(const char *name)
{
    if (!spantraceEnabled())
        return nullptr;
    SpanNode *parent = stack_.back().node;
    parent->children.emplace_back();
    SpanNode *node = &parent->children.back();
    node->name = name;
    stack_.push_back(
        {node, 0, HwCounters::instance().snapshot(), true});
    return node;
}

void
SpanTracer::popGroup(SpanNode *node, std::uint64_t gen)
{
    if (gen != gen_ || !spantraceEnabled())
        return;
    while (stack_.size() > 1) {
        SpanNode *top = stack_.back().node;
        closeTop(0);
        if (top == node)
            return;
    }
}

void
SpanTracer::leaf(const char *name, Cycles cycles)
{
    if (!spantraceEnabled())
        return;
    SpanNode *parent = stack_.back().node;
    parent->children.emplace_back();
    SpanNode &node = parent->children.back();
    node.name = name;
    node.cycles = cycles;
}

SpanSession
SpanTracer::take()
{
    disable();
    SpanSession out = std::move(session_);
    session_ = SpanSession{};
    return out;
}

} // namespace aosd
