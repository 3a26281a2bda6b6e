/**
 * @file
 * The paper's suggested architecture improvements (§2.5, §3.3, §3.2),
 * implemented as handler-program variants:
 *
 *  - LazyPipelineCheck: a system call is a *voluntary* exception; the
 *    88000 could defer pipeline-fault examination instead of reading
 *    ~18 pipeline registers on every call.
 *  - PreflightWindowFault: the SPARC could take a real window-overflow
 *    fault before the call when needed, instead of the handler
 *    emulating the check and spilling inline (and copying parameters
 *    an extra time around the interposed frame).
 *  - VectoredSyscalls: the R2000 vectors user TLB misses separately
 *    but funnels system calls through the common handler; a dedicated
 *    vector removes the cause-decode ladder (§2.3's DeMoney critique).
 *  - FaultAddressRegister: the i860 could latch the faulting address
 *    it already has, saving the 26-instruction instruction
 *    interpretation in every trap (§3.1).
 *  - CacheContextTags: context tags on the i860's virtual cache remove
 *    the full-cache flush from its context switch (§3.2: "Process IDs
 *    can eliminate the need for this").
 *
 * Each builder returns the modified program for machines it applies
 * to; buildImprovedHandler falls back to the stock handler otherwise.
 */

#ifndef AOSD_CPU_HANDLER_VARIANTS_HH
#define AOSD_CPU_HANDLER_VARIANTS_HH

#include <string>
#include <vector>

#include "arch/isa.hh"
#include "arch/machine_desc.hh"

namespace aosd
{

/** The architecture fixes §2.5/§3 propose. */
enum class ArchFix
{
    LazyPipelineCheck,
    PreflightWindowFault,
    VectoredSyscalls,
    FaultAddressRegister,
    CacheContextTags,
};

constexpr const char *
archFixName(ArchFix f)
{
    switch (f) {
      case ArchFix::LazyPipelineCheck:
        return "88000: defer pipeline check on voluntary traps";
      case ArchFix::PreflightWindowFault:
        return "SPARC: window fault before call, no inline emulation";
      case ArchFix::VectoredSyscalls:
        return "R2000: dedicated syscall vector (like utlbmiss)";
      case ArchFix::FaultAddressRegister:
        return "i860: report the faulting address";
      case ArchFix::CacheContextTags:
        return "i860: context tags on the virtual cache";
    }
    return "?";
}

/** Does this fix change anything on this machine/primitive? */
bool archFixApplies(ArchFix fix, MachineId machine, Primitive prim);

/**
 * Handler with the fix applied (identical to buildHandler() when the
 * fix does not apply to the machine/primitive).
 */
HandlerProgram buildImprovedHandler(const MachineDesc &machine,
                                    Primitive prim, ArchFix fix);

/** All fixes, for sweeps. */
inline const ArchFix allArchFixes[] = {
    ArchFix::LazyPipelineCheck,   ArchFix::PreflightWindowFault,
    ArchFix::VectoredSyscalls,    ArchFix::FaultAddressRegister,
    ArchFix::CacheContextTags,
};

} // namespace aosd

#endif // AOSD_CPU_HANDLER_VARIANTS_HH
