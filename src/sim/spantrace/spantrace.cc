#include "sim/spantrace/spantrace.hh"

namespace aosd
{

namespace spdetail
{
constinit thread_local bool on = false;
} // namespace spdetail

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

void
SpanSession::merge(const SpanSession &other)
{
    for (const auto &[name, hist] : other.hists) {
        Histogram *mine = nullptr;
        for (auto &[my_name, my_hist] : hists)
            if (my_name == name)
                mine = &my_hist;
        if (mine)
            mine->merge(hist);
        else
            hists.emplace_back(name, hist);
    }
    requests.insert(requests.end(), other.requests.begin(),
                    other.requests.end());
    dropped += other.dropped;
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
    spdetail::on = false;
}

void
SpanTracer::disable()
{
    armed_ = false;
    stack_.clear();
    ++gen_;
    spdetail::on = false;
}

void
SpanTracer::beginRequest(const char *name, std::uint64_t id,
                         Cycles now)
{
    if (!armed_)
        return;
    if (spdetail::on)
        endRequest(now);
    requestRoot_ = SpanNode{};
    requestRoot_.name = name;
    requestId_ = id;
    stack_.clear();
    stack_.push_back(
        {&requestRoot_, now, HwCounters::instance().snapshot(), false});
    ++gen_;
    spdetail::on = true;
}

void
SpanTracer::endRequest(Cycles now)
{
    if (!spdetail::on)
        return;
    if (stack_.empty()) {
        spdetail::on = false;
        return;
    }
    while (!stack_.empty())
        closeTop(now);
    spdetail::on = false;
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
    if (!spdetail::on)
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
    if (gen != gen_ || !spdetail::on)
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
    if (!spdetail::on)
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
    if (gen != gen_ || !spdetail::on)
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
    if (!spdetail::on)
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
