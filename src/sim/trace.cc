#include "sim/trace.hh"

#include "sim/logging.hh"

namespace aosd
{

const char *
traceEventName(TraceEvent e)
{
    switch (e) {
      case TraceEvent::TrapEnter:
        return "trap_enter";
      case TraceEvent::TrapExit:
        return "trap_exit";
      case TraceEvent::Syscall:
        return "syscall";
      case TraceEvent::ContextSwitch:
        return "context_switch";
      case TraceEvent::ThreadSwitch:
        return "thread_switch";
      case TraceEvent::TlbMiss:
        return "tlb_miss";
      case TraceEvent::TlbFill:
        return "tlb_fill";
      case TraceEvent::TlbPurge:
        return "tlb_purge";
      case TraceEvent::WriteBufferStall:
        return "write_buffer_stall";
      case TraceEvent::CacheMiss:
        return "cache_miss";
      case TraceEvent::CacheFlush:
        return "cache_flush";
      case TraceEvent::WindowOverflow:
        return "window_overflow";
      case TraceEvent::WindowUnderflow:
        return "window_underflow";
      case TraceEvent::ExecPhase:
        return "exec_phase";
      case TraceEvent::RpcPhase:
        return "rpc_phase";
      case TraceEvent::EmulatedInstr:
        return "emulated_instr";
      case TraceEvent::Counter:
        return "counter";
      case TraceEvent::Mark:
        return "mark";
    }
    return "unknown";
}

int
traceEventLane(TraceEvent e)
{
    switch (e) {
      case TraceEvent::ExecPhase:
        return 1;
      case TraceEvent::WindowOverflow:
      case TraceEvent::WindowUnderflow:
        return 2;
      case TraceEvent::TrapEnter:
      case TraceEvent::TrapExit:
      case TraceEvent::Syscall:
      case TraceEvent::ContextSwitch:
      case TraceEvent::ThreadSwitch:
      case TraceEvent::EmulatedInstr:
        return 3;
      case TraceEvent::RpcPhase:
        return 4;
      case TraceEvent::TlbMiss:
      case TraceEvent::TlbFill:
      case TraceEvent::TlbPurge:
        return 5;
      case TraceEvent::CacheMiss:
      case TraceEvent::CacheFlush:
        return 6;
      case TraceEvent::WriteBufferStall:
        return 7;
      case TraceEvent::Counter:
        return 8;
      case TraceEvent::Mark:
        return 9;
    }
    return 9;
}

const char *
traceLaneName(int lane)
{
    switch (lane) {
      case 1:
        return "cpu/exec";
      case 2:
        return "cpu/reg_windows";
      case 3:
        return "os/kernel";
      case 4:
        return "os/ipc";
      case 5:
        return "mem/tlb";
      case 6:
        return "mem/cache";
      case 7:
        return "mem/write_buffer";
      case 8:
        return "counters";
      case 9:
        return "marks";
    }
    return "marks";
}

Tracer &
Tracer::instance()
{
    thread_local Tracer tracer;
    return tracer;
}

void
Tracer::enable(std::size_t cap)
{
    if (cap == 0)
        fatal("trace ring needs at least one slot");
    ring.assign(cap, TraceRecord{});
    head = 0;
    count = 0;
    droppedCount = 0;
    now = 0;
    setObserving(observeTrace, true);
}

const TraceRecord &
Tracer::at(std::size_t i) const
{
    if (i >= count)
        fatal("trace record index out of range");
    return ring[(head + i) % ring.size()];
}

std::vector<TraceRecord>
Tracer::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(at(i));
    return out;
}

void
Tracer::clear()
{
    head = 0;
    count = 0;
    droppedCount = 0;
    now = 0;
}

Json
Tracer::toChromeJson() const
{
    Json events = Json::array();

    // Name the process and every lane in use, so the UI shows
    // component names ("mem/tlb") instead of bare tids. Metadata
    // events carry no timestamp and must precede the records.
    bool laneUsed[16] = {};
    for (std::size_t i = 0; i < count; ++i) {
        int lane = traceEventLane(at(i).event);
        laneUsed[lane % 16] = true;
    }
    {
        Json meta = Json::object();
        meta.set("name", Json("process_name"));
        meta.set("ph", Json("M"));
        meta.set("pid", Json(1));
        meta.set("tid", Json(0));
        Json args = Json::object();
        args.set("name", Json("aosd-sim"));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }
    for (int lane = 0; lane < 16; ++lane) {
        if (!laneUsed[lane])
            continue;
        Json meta = Json::object();
        meta.set("name", Json("thread_name"));
        meta.set("ph", Json("M"));
        meta.set("pid", Json(1));
        meta.set("tid", Json(lane));
        Json args = Json::object();
        args.set("name", Json(traceLaneName(lane)));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }

    for (std::size_t i = 0; i < count; ++i) {
        const TraceRecord &r = at(i);
        Json ev = Json::object();
        ev.set("name", Json(r.name ? r.name : traceEventName(r.event)));
        ev.set("cat", Json(traceEventName(r.event)));
        ev.set("ph", Json(std::string(1, static_cast<char>(r.phase))));
        ev.set("ts", Json(r.cycle));
        if (r.phase == TracePhase::Complete)
            ev.set("dur", Json(r.duration));
        if (r.phase == TracePhase::Instant)
            ev.set("s", Json("g")); // global-scope instant
        ev.set("pid", Json(1));
        ev.set("tid", Json(traceEventLane(r.event)));
        Json args = Json::object();
        if (r.phase == TracePhase::Counter)
            args.set("value", Json(r.arg)); // the series sample
        else
            args.set("arg", Json(r.arg));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ns")); // 1 "ns" == 1 cycle here
    Json meta = Json::object();
    meta.set("time_unit", Json("cycles"));
    meta.set("dropped_records", Json(droppedCount));
    doc.set("otherData", std::move(meta));
    return doc;
}

std::string
Tracer::exportChromeTracing() const
{
    return toChromeJson().dump(1);
}

} // namespace aosd
