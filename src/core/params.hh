/**
 * @file
 * Microarchitectural parameters of the EDGE core. Defaults follow
 * the public TRIPS prototype configuration: a 4x4 grid of execution
 * nodes, 8 reservation-station slots per node per frame (so a frame
 * holds one 128-instruction block), 8 frames (a 1024-instruction
 * window), a 1-cycle operand-network hop.
 */

#ifndef EDGE_CORE_PARAMS_HH
#define EDGE_CORE_PARAMS_HH

#include "common/types.hh"
#include "isa/opcode.hh"

namespace edge::core {

struct CoreParams
{
    unsigned rows = 4;
    unsigned cols = 4;
    unsigned slotsPerNode = 8;  ///< RS slots per node per frame
    unsigned numFrames = 8;     ///< blocks in flight (window/128)

    unsigned hopLatency = 1;    ///< operand network, cycles per hop
    unsigned fetchWidth = 16;   ///< instructions mapped per cycle
    unsigned regReadLatency = 1;

    /** State-upgrade (commit wave) sends per node per cycle. */
    unsigned commitPortsPerNode = 2;
    /** Ablation: commit-wave propagation occupies the ALU instead. */
    bool commitWaveUsesAlu = false;
    /** Ablation: suppress re-sends whose value did not change. */
    bool squashIdenticalValues = true;

    // Execution latencies by functional-unit class.
    unsigned latIntAlu = 1;
    unsigned latIntMul = 3;
    unsigned latIntDiv = 12;
    unsigned latFpAlu = 4;
    unsigned latFpMul = 4;
    unsigned latFpDiv = 16;
    unsigned latCtrl = 1;
    unsigned latMemAddr = 1; ///< address generation for loads/stores

    /**
     * Abort if no block commits for this many cycles. This one check
     * ends every hung run: a drained machine (deadlock) and one still
     * busy re-sending waves (livelock) alike.
     */
    Cycle watchdogCycles = 200000;

    unsigned numNodes() const { return rows * cols; }

    unsigned
    execLatency(isa::Opcode op) const
    {
        if (isa::isMem(op))
            return latMemAddr;
        switch (isa::opInfo(op).fu) {
          case isa::FuClass::IntAlu: return latIntAlu;
          case isa::FuClass::IntMul: return latIntMul;
          case isa::FuClass::IntDiv: return latIntDiv;
          case isa::FuClass::FpAlu:  return latFpAlu;
          case isa::FuClass::FpMul:  return latFpMul;
          case isa::FuClass::FpDiv:  return latFpDiv;
          case isa::FuClass::Ctrl:   return latCtrl;
          case isa::FuClass::Mem:    return latMemAddr;
        }
        return 1;
    }
};

} // namespace edge::core

#endif // EDGE_CORE_PARAMS_HH
