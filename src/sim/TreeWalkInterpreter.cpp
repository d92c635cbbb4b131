#include "sim/TreeWalkInterpreter.h"

#include "sim/CostModel.h"
#include "support/Compiler.h"
#include "support/Format.h"

using namespace helix;

TreeWalkInterpreter::TreeWalkInterpreter(Module &M) : M(M) {
  // Lay out globals from address 1 (0 stays an always-invalid "null").
  uint64_t Next = 1;
  for (unsigned I = 0, E = M.numGlobals(); I != E; ++I) {
    GlobalBase.push_back(Next);
    Next += M.global(I).Size;
  }
  HeapPtr = Next;
  if (Next > ExecLimits::MaxMemoryWords) {
    GlobalsPastCap = true;
    return;
  }
  Low.assign(Next, Value());
  for (unsigned I = 0, E = M.numGlobals(); I != E; ++I) {
    const GlobalVariable &G = M.global(I);
    for (size_t K = 0; K != G.Init.size(); ++K)
      Low[GlobalBase[I] + K] = Value::ofInt(G.Init[K]);
  }
}

const Function *TreeWalkInterpreter::currentFunction() const {
  return Frames.empty() ? nullptr : Frames.back().F;
}

Value TreeWalkInterpreter::operandValue(const Operand &O) const {
  assert(!Frames.empty() && "no active frame");
  return evalOperand(Frames.back(), O);
}

Value TreeWalkInterpreter::regValue(unsigned Reg) const {
  assert(!Frames.empty() && "no active frame");
  assert(Reg < Frames.back().Regs.size() && "register out of range");
  return Frames.back().Regs[Reg];
}

Value TreeWalkInterpreter::loadSlot(uint64_t Addr) const {
  if (Addr >= ExecStackBase) {
    uint64_t Idx = Addr - ExecStackBase;
    return Idx < Stack.size() ? Stack[Idx] : Value();
  }
  return Addr < Low.size() ? Low[Addr] : Value();
}

bool TreeWalkInterpreter::storeSlot(uint64_t Addr, Value V) {
  if (Addr >= ExecStackBase) {
    uint64_t Idx = Addr - ExecStackBase;
    if (Idx >= ExecLimits::MaxStackWords)
      return false;
    if (Idx >= Stack.size())
      Stack.resize(Idx + 1);
    Stack[Idx] = V;
    return true;
  }
  if (Addr >= ExecLimits::MaxMemoryWords)
    return false;
  if (Addr >= Low.size())
    Low.resize(Addr + 1);
  Low[Addr] = V;
  return true;
}

Value TreeWalkInterpreter::evalOperand(const Frame &Fr,
                                       const Operand &O) const {
  switch (O.kind()) {
  case Operand::Kind::Reg:
    assert(O.regId() < Fr.Regs.size() && "register out of range");
    return Fr.Regs[O.regId()];
  case Operand::Kind::ImmInt:
    return Value::ofInt(O.intValue());
  case Operand::Kind::ImmFloat:
    return Value::ofFloat(O.floatValue());
  case Operand::Kind::Global:
    return Value::ofInt(int64_t(GlobalBase[O.globalIndex()]));
  }
  HELIX_UNREACHABLE("unknown operand kind");
}

ExecResult TreeWalkInterpreter::run(const std::string &Name,
                                    const std::vector<Value> &Args) {
  ExecResult R;
  Function *F = M.findFunction(Name);
  if (!F) {
    R.Error = "no function @" + Name;
    return R;
  }
  if (Args.size() != F->numParams()) {
    R.Error = "argument count mismatch for @" + Name;
    return R;
  }
  if (GlobalsPastCap) {
    R.Error = ExecLimits::GlobalsPastCap;
    return R;
  }

  Frames.clear();
  HasReturned = false;
  Frame Fr;
  Fr.F = F;
  Fr.Regs.assign(F->numRegs(), Value());
  for (size_t K = 0; K != Args.size(); ++K)
    Fr.Regs[K] = Args[K];
  Fr.BB = F->entry();
  Fr.SavedStackPtr = StackPtr;
  Frames.push_back(std::move(Fr));

  while (!Frames.empty()) {
    if (R.Instructions >= MaxInstructions) {
      R.Error = formatStr("instruction budget exhausted (%llu)",
                          (unsigned long long)MaxInstructions);
      R.BudgetExhausted = true;
      return R;
    }
    if (!step(R))
      return R;
  }
  R.Ok = true;
  R.ReturnValue = Returned;
  return R;
}

bool TreeWalkInterpreter::step(ExecResult &R) {
  Frame &Fr = Frames.back();
  assert(Fr.Pos < Fr.BB->size() && "fell off the end of a block");
  Instruction *I = Fr.BB->instr(Fr.Pos);
  unsigned Cost = opcodeCycles(I->opcode());
  R.Cycles += Cost;
  ++R.Instructions;

  auto Val = [&](unsigned K) { return evalOperand(Fr, I->operand(K)); };
  auto SetDest = [&](Value V) {
    assert(I->hasDest() && "destination expected");
    Fr.Regs[I->dest()] = V;
  };
  auto Fail = [&](const std::string &Msg) {
    R.Error = formatStr("@%s/%s: %s", Fr.F->name().c_str(),
                        Fr.BB->name().c_str(), Msg.c_str());
    return false;
  };

  Opcode Op = I->opcode();
  bool Advance = true;

  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr: {
    int64_t A = Val(0).asInt(), B = Val(1).asInt();
    int64_t Out = 0;
    switch (Op) {
    case Opcode::Add:
      Out = int64_t(uint64_t(A) + uint64_t(B));
      break;
    case Opcode::Sub:
      Out = int64_t(uint64_t(A) - uint64_t(B));
      break;
    case Opcode::Mul:
      Out = int64_t(uint64_t(A) * uint64_t(B));
      break;
    case Opcode::Div:
      if (B == 0)
        return Fail("integer division by zero");
      Out = A / B;
      break;
    case Opcode::Rem:
      if (B == 0)
        return Fail("integer remainder by zero");
      Out = A % B;
      break;
    case Opcode::And:
      Out = A & B;
      break;
    case Opcode::Or:
      Out = A | B;
      break;
    case Opcode::Xor:
      Out = A ^ B;
      break;
    case Opcode::Shl:
      Out = int64_t(uint64_t(A) << (uint64_t(B) & 63));
      break;
    case Opcode::Shr:
      Out = int64_t(uint64_t(A) >> (uint64_t(B) & 63));
      break;
    default:
      HELIX_UNREACHABLE("not an integer binop");
    }
    SetDest(Value::ofInt(Out));
    break;
  }
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv: {
    double A = Val(0).asFloat(), B = Val(1).asFloat();
    double Out = 0;
    switch (Op) {
    case Opcode::FAdd:
      Out = A + B;
      break;
    case Opcode::FSub:
      Out = A - B;
      break;
    case Opcode::FMul:
      Out = A * B;
      break;
    case Opcode::FDiv:
      Out = A / B;
      break;
    default:
      HELIX_UNREACHABLE("not a float binop");
    }
    SetDest(Value::ofFloat(Out));
    break;
  }
  case Opcode::IntToFP:
    SetDest(Value::ofFloat(Val(0).asFloat()));
    break;
  case Opcode::FPToInt:
    SetDest(Value::ofInt(Val(0).asInt()));
    break;
  case Opcode::CmpEQ:
    SetDest(Value::ofInt(Val(0).asInt() == Val(1).asInt()));
    break;
  case Opcode::CmpNE:
    SetDest(Value::ofInt(Val(0).asInt() != Val(1).asInt()));
    break;
  case Opcode::CmpLT:
    SetDest(Value::ofInt(Val(0).asInt() < Val(1).asInt()));
    break;
  case Opcode::CmpLE:
    SetDest(Value::ofInt(Val(0).asInt() <= Val(1).asInt()));
    break;
  case Opcode::CmpGT:
    SetDest(Value::ofInt(Val(0).asInt() > Val(1).asInt()));
    break;
  case Opcode::CmpGE:
    SetDest(Value::ofInt(Val(0).asInt() >= Val(1).asInt()));
    break;
  case Opcode::FCmpEQ:
    SetDest(Value::ofInt(Val(0).asFloat() == Val(1).asFloat()));
    break;
  case Opcode::FCmpNE:
    SetDest(Value::ofInt(Val(0).asFloat() != Val(1).asFloat()));
    break;
  case Opcode::FCmpLT:
    SetDest(Value::ofInt(Val(0).asFloat() < Val(1).asFloat()));
    break;
  case Opcode::FCmpLE:
    SetDest(Value::ofInt(Val(0).asFloat() <= Val(1).asFloat()));
    break;
  case Opcode::FCmpGT:
    SetDest(Value::ofInt(Val(0).asFloat() > Val(1).asFloat()));
    break;
  case Opcode::FCmpGE:
    SetDest(Value::ofInt(Val(0).asFloat() >= Val(1).asFloat()));
    break;
  case Opcode::Mov:
    SetDest(Val(0));
    break;
  case Opcode::Load: {
    int64_t Addr = Val(0).asInt();
    if (Addr <= 0)
      return Fail("load from null/negative address");
    SetDest(loadSlot(uint64_t(Addr)));
    break;
  }
  case Opcode::Store: {
    int64_t Addr = Val(1).asInt();
    if (Addr <= 0)
      return Fail("store to null/negative address");
    if (!storeSlot(uint64_t(Addr), Val(0)))
      return Fail(ExecLimits::StorePastCap);
    break;
  }
  case Opcode::Alloca: {
    uint64_t Base = ExecStackBase + StackPtr;
    if (uint64_t(I->imm()) > ExecLimits::MaxStackWords - StackPtr)
      return Fail(ExecLimits::AllocaPastCap);
    StackPtr += uint64_t(I->imm());
    if (Stack.size() < StackPtr)
      Stack.resize(StackPtr);
    SetDest(Value::ofInt(int64_t(Base)));
    break;
  }
  case Opcode::HeapAlloc: {
    int64_t N = Val(0).asInt();
    if (N <= 0)
      return Fail("heap allocation of non-positive size");
    if (uint64_t(N) > ExecLimits::MaxMemoryWords - HeapPtr)
      return Fail(ExecLimits::HeapPastCap);
    uint64_t Base = HeapPtr;
    HeapPtr += uint64_t(N);
    if (Low.size() < HeapPtr)
      Low.resize(HeapPtr);
    SetDest(Value::ofInt(int64_t(Base)));
    break;
  }
  case Opcode::Br: {
    if (Obs)
      Obs->onInstruction(I, Cost, *this);
    const BasicBlock *From = Fr.BB;
    Fr.BB = I->target1();
    Fr.Pos = 0;
    if (Obs)
      Obs->onEdge(From, Fr.BB, *this);
    return true;
  }
  case Opcode::CondBr: {
    if (Obs)
      Obs->onInstruction(I, Cost, *this);
    const BasicBlock *From = Fr.BB;
    Fr.BB = Val(0).asInt() != 0 ? I->target1() : I->target2();
    Fr.Pos = 0;
    if (Obs)
      Obs->onEdge(From, Fr.BB, *this);
    return true;
  }
  case Opcode::Call: {
    if (Obs)
      Obs->onInstruction(I, Cost, *this);
    Frame NewFr;
    NewFr.F = I->callee();
    NewFr.Regs.assign(I->callee()->numRegs(), Value());
    for (unsigned K = 0, E = I->numOperands(); K != E; ++K)
      NewFr.Regs[K] = Val(K);
    NewFr.BB = I->callee()->entry();
    NewFr.SavedStackPtr = StackPtr;
    NewFr.DestRegInCaller = I->hasDest() ? I->dest() : NoReg;
    NewFr.WantsResult = I->hasDest();
    ++Fr.Pos; // resume after the call upon return
    Frames.push_back(std::move(NewFr));
    return true;
  }
  case Opcode::Ret: {
    if (Obs)
      Obs->onInstruction(I, Cost, *this);
    Value RV = I->numOperands() == 1 ? Val(0) : Value();
    StackPtr = Fr.SavedStackPtr;
    unsigned DestReg = Fr.DestRegInCaller;
    bool Wants = Fr.WantsResult;
    Frames.pop_back();
    if (Frames.empty()) {
      Returned = RV;
      HasReturned = true;
    } else if (Wants && DestReg != NoReg) {
      Frames.back().Regs[DestReg] = RV;
    }
    return true;
  }
  case Opcode::Wait:
  case Opcode::SignalOp:
  case Opcode::IterStart:
  case Opcode::MemFence:
  case Opcode::Nop:
    // Sequentially these are no-ops; the parallel engines give them their
    // synchronization semantics.
    break;
  }

  if (Obs)
    Obs->onInstruction(I, Cost, *this);
  if (Advance)
    ++Fr.Pos;
  return true;
}
