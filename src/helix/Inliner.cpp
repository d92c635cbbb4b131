#include "helix/Inliner.h"

#include "analysis/Liveness.h"
#include "support/Compiler.h"

#include <map>

using namespace helix;

bool helix::inlineCall(Function *Caller, Instruction *Call) {
  assert(Call->isCall() && "not a call instruction");
  Function *Callee = Call->callee();
  if (Callee == Caller)
    return false; // direct recursion is never inlined

  BasicBlock *CallBB = Call->parent();
  unsigned CallIdx = CallBB->indexOf(Call);

  // Split the caller block: everything after the call moves to Cont.
  BasicBlock *Cont = Caller->createBlock(CallBB->name() + ".cont");
  {
    std::vector<std::unique_ptr<Instruction>> Moved;
    while (CallBB->size() > CallIdx + 1)
      Moved.push_back(CallBB->take(CallBB->instr(CallIdx + 1)));
    for (auto &I : Moved)
      Cont->insertOwned(Cont->size(), std::move(I));
  }

  // Map callee registers to fresh caller registers.
  std::map<unsigned, unsigned> RegMap;
  auto MapReg = [&](unsigned R) {
    auto It = RegMap.find(R);
    if (It == RegMap.end())
      It = RegMap.emplace(R, Caller->allocReg()).first;
    return It->second;
  };

  // Clone callee blocks.
  std::map<BasicBlock *, BasicBlock *> BlockMap;
  for (BasicBlock *BB : *Callee)
    BlockMap[BB] = Caller->createBlock(Callee->name() + "." + BB->name());

  for (BasicBlock *BB : *Callee) {
    BasicBlock *NewBB = BlockMap[BB];
    for (Instruction *I : *BB) {
      if (I->opcode() == Opcode::Ret) {
        // ret V  =>  [dest = mov V;] br Cont
        if (Call->hasDest() && I->numOperands() == 1) {
          Instruction *Mov = NewBB->append(Opcode::Mov);
          Operand O = I->operand(0);
          if (O.isReg())
            O.setReg(MapReg(O.regId()));
          Mov->addOperand(O);
          Mov->setDest(Call->dest());
        } else if (Call->hasDest()) {
          // Callee returns no value but the call expects one: define 0 so
          // the register is never read uninitialized.
          Instruction *Mov = NewBB->append(Opcode::Mov);
          Mov->addOperand(Operand::immInt(0));
          Mov->setDest(Call->dest());
        }
        Instruction *Br = NewBB->append(Opcode::Br);
        Br->setTarget1(Cont);
        continue;
      }
      Instruction *NI = NewBB->append(I->opcode());
      NI->setImm(I->imm());
      NI->setCallee(I->callee());
      if (I->hasDest())
        NI->setDest(MapReg(I->dest()));
      for (unsigned K = 0, E = I->numOperands(); K != E; ++K) {
        Operand O = I->operand(K);
        if (O.isReg())
          O.setReg(MapReg(O.regId()));
        NI->addOperand(O);
      }
      if (I->target1())
        NI->setTarget1(BlockMap[I->target1()]);
      if (I->target2())
        NI->setTarget2(BlockMap[I->target2()]);
    }
  }

  // Replace the call with argument copies and a branch to the callee entry.
  BasicBlock *CalleeEntry = BlockMap[Callee->entry()];
  std::vector<Operand> Args;
  for (unsigned K = 0, E = Call->numOperands(); K != E; ++K)
    Args.push_back(Call->operand(K));
  CallBB->erase(Call);
  for (unsigned K = 0, E = unsigned(Args.size()); K != E; ++K) {
    Instruction *Mov = CallBB->append(Opcode::Mov);
    Mov->addOperand(Args[K]);
    Mov->setDest(MapReg(K)); // parameter K occupies callee register K
  }
  // A real call starts from a zeroed register window; the inlined copy
  // must too, or a callee register read before it is written would see
  // its value from the previous trip through this call site. Only
  // registers live at callee entry can be read that way, so only those
  // (beyond the parameters) get a zero.
  {
    CFGInfo CalleeCFG(Callee);
    Liveness CalleeLV(Callee, CalleeCFG);
    const BitSet &LiveIn = CalleeLV.liveIn(Callee->entry());
    for (unsigned R = unsigned(Args.size()); R < LiveIn.size(); ++R) {
      if (!LiveIn.test(R))
        continue;
      Instruction *Mov = CallBB->append(Opcode::Mov);
      Mov->addOperand(Operand::immInt(0));
      Mov->setDest(MapReg(R));
    }
  }
  Instruction *Br = CallBB->append(Opcode::Br);
  Br->setTarget1(CalleeEntry);
  return true;
}
