package compile

import (
	"testing"

	"nacho/internal/isa"
)

// r is a plain general-purpose register shorthand for test programs.
func r(n int) isa.Reg { return isa.Reg(n) }

func compileOne(t *testing.T, instrs ...isa.Instr) *Program {
	t.Helper()
	return Compile(instrs)
}

func TestLowerSpecialization(t *testing.T) {
	cases := []struct {
		name string
		in   isa.Instr
		want Op
	}{
		{"alu", isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(6), Imm: 1}, Addi},
		{"alu to x0 is timed nop", isa.Instr{Op: isa.ADD, Rd: isa.Zero, Rs1: r(5), Rs2: r(6)}, TimedNop},
		{"addi to sp runs the stack guard", isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -16}, AddiSP},
		{"non-addi write to sp falls back", isa.Instr{Op: isa.ADD, Rd: isa.SP, Rs1: r(5), Rs2: r(6)}, RefStep},
		{"load", isa.Instr{Op: isa.LW, Rd: r(5), Rs1: r(6)}, Lw},
		{"load to x0 falls back", isa.Instr{Op: isa.LW, Rd: isa.Zero, Rs1: r(6)}, RefStep},
		{"load to sp falls back", isa.Instr{Op: isa.LW, Rd: isa.SP, Rs1: r(6)}, RefStep},
		{"store", isa.Instr{Op: isa.SB, Rs1: r(6), Rs2: r(7)}, Sb},
		{"jal links", isa.Instr{Op: isa.JAL, Rd: r(1)}, Jal},
		{"jal x0 is a plain jump", isa.Instr{Op: isa.JAL, Rd: isa.Zero}, Jmp},
		{"jal into sp falls back", isa.Instr{Op: isa.JAL, Rd: isa.SP}, RefStep},
		{"jalr links", isa.Instr{Op: isa.JALR, Rd: r(1), Rs1: r(5)}, Jalr},
		{"jalr x0 is a register jump", isa.Instr{Op: isa.JALR, Rd: isa.Zero, Rs1: r(1)}, JmpReg},
		{"fence is a timed nop", isa.Instr{Op: isa.FENCE}, TimedNop},
		{"ebreak halts", isa.Instr{Op: isa.EBREAK}, Halt},
		{"ecall falls back", isa.Instr{Op: isa.ECALL}, RefStep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compileOne(t, tc.in)
			if got := p.Code[0].Op; got != tc.want {
				t.Fatalf("lowered op = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestBranchTargetResolution(t *testing.T) {
	nop := isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5)}
	beq := func(imm int32) isa.Instr {
		return isa.Instr{Op: isa.BEQ, Rs1: r(5), Rs2: r(6), Imm: imm}
	}
	t.Run("forward and backward", func(t *testing.T) {
		p := compileOne(t, beq(8), nop, beq(-8))
		if got := p.Code[0].Target; got != 2 {
			t.Fatalf("forward target = %d, want 2", got)
		}
		if got := p.Code[2].Target; got != 0 {
			t.Fatalf("backward target = %d, want 0", got)
		}
	})
	t.Run("out of text", func(t *testing.T) {
		p := compileOne(t, beq(8), nop) // lands one past the end
		if got := p.Code[0].Target; got != InvalidTarget {
			t.Fatalf("target = %d, want InvalidTarget", got)
		}
	})
	t.Run("before text", func(t *testing.T) {
		p := compileOne(t, beq(-4), nop)
		if got := p.Code[0].Target; got != InvalidTarget {
			t.Fatalf("target = %d, want InvalidTarget", got)
		}
	})
	t.Run("misaligned", func(t *testing.T) {
		p := compileOne(t, beq(6), nop, nop)
		if got := p.Code[0].Target; got != InvalidTarget {
			t.Fatalf("target = %d, want InvalidTarget", got)
		}
		// The architectural byte offset must survive for the fallback path.
		if got := int32(p.Code[0].Imm); got != 6 {
			t.Fatalf("fallback imm = %d, want 6", got)
		}
	})
}

func TestFusion(t *testing.T) {
	t.Run("lui+addi folds the constant", func(t *testing.T) {
		p := compileOne(t,
			isa.Instr{Op: isa.LUI, Rd: r(5), Imm: 0x12345000},
			isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5), Imm: 0x678},
		)
		f := p.Code[0]
		if f.Op != LuiAddi || f.Imm != 0x12345678 {
			t.Fatalf("got op=%d imm=%#x, want LuiAddi imm=0x12345678", f.Op, f.Imm)
		}
		if p.Stats.Fused != 1 {
			t.Fatalf("Stats.Fused = %d, want 1", p.Stats.Fused)
		}
		// The shadowed slot keeps its own lowering for direct branch entry.
		if p.Code[1].Op != Addi {
			t.Fatalf("shadowed slot op = %d, want Addi", p.Code[1].Op)
		}
	})
	t.Run("addi+load carries both immediates", func(t *testing.T) {
		p := compileOne(t,
			isa.Instr{Op: isa.ADDI, Rd: r(6), Rs1: r(7), Imm: 16},
			isa.Instr{Op: isa.LW, Rd: r(5), Rs1: r(6), Imm: 4},
		)
		f := p.Code[0]
		if f.Op != AddiLw || f.Rd != 5 || f.Rs1 != 7 || f.Rs2 != 6 ||
			f.Imm != 16 || f.Target != 4 {
			t.Fatalf("unexpected fused load: %+v", f)
		}
	})
	t.Run("addi+store carries the value register in Rd", func(t *testing.T) {
		p := compileOne(t,
			isa.Instr{Op: isa.ADDI, Rd: r(6), Rs1: r(7), Imm: 16},
			isa.Instr{Op: isa.SW, Rs1: r(6), Rs2: r(9), Imm: 8},
		)
		f := p.Code[0]
		if f.Op != AddiSw || f.Rd != 9 || f.Rs1 != 7 || f.Rs2 != 6 ||
			f.Imm != 16 || f.Target != 8 {
			t.Fatalf("unexpected fused store: %+v", f)
		}
	})
	t.Run("slt+bnez fuses with a resolved target", func(t *testing.T) {
		nop := isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5)}
		p := compileOne(t,
			isa.Instr{Op: isa.SLT, Rd: r(5), Rs1: r(6), Rs2: r(7)},
			isa.Instr{Op: isa.BNE, Rs1: r(5), Rs2: isa.Zero, Imm: 8},
			nop, nop,
		)
		f := p.Code[0]
		if f.Op != SltBne || f.Target != 3 {
			t.Fatalf("got op=%d target=%d, want SltBne target=3", f.Op, f.Target)
		}
	})
	t.Run("slt+bnez skipped when the target cannot resolve", func(t *testing.T) {
		p := compileOne(t,
			isa.Instr{Op: isa.SLT, Rd: r(5), Rs1: r(6), Rs2: r(7)},
			isa.Instr{Op: isa.BNE, Rs1: r(5), Rs2: isa.Zero, Imm: 64},
		)
		if p.Code[0].Op == SltBne {
			t.Fatal("fused despite unresolvable branch target")
		}
	})
	t.Run("unrelated neighbors stay unfused", func(t *testing.T) {
		p := compileOne(t,
			isa.Instr{Op: isa.ADDI, Rd: r(6), Rs1: r(7), Imm: 16},
			isa.Instr{Op: isa.LW, Rd: r(5), Rs1: r(8), Imm: 4}, // base is not the addi's rd
		)
		if p.Code[0].Op != Addi {
			t.Fatalf("fused across unrelated registers: op=%d", p.Code[0].Op)
		}
	})
}

func TestALURunLengths(t *testing.T) {
	alu := isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5), Imm: 1}
	p := compileOne(t, alu, alu, alu,
		isa.Instr{Op: isa.BEQ, Rs1: r(5), Rs2: r(6), Imm: -12},
		alu,
	)
	want := []uint32{3, 2, 1, 0, 1}
	for i, w := range want {
		if got := p.Code[i].Run; got != w {
			t.Fatalf("Run[%d] = %d, want %d", i, got, w)
		}
	}
	if p.Stats.Batchable != 4 {
		t.Fatalf("Stats.Batchable = %d, want 4", p.Stats.Batchable)
	}

	// Writes to x0 (discarded) and sp (stack guard, SP notification) need
	// per-instruction handling, so they break runs.
	p = compileOne(t, alu,
		isa.Instr{Op: isa.ADDI, Rd: isa.Zero, Rs1: r(5), Imm: 1},
		alu,
		isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -16},
		isa.Instr{Op: isa.ADD, Rd: isa.SP, Rs1: isa.SP, Rs2: r(5)},
		alu,
	)
	want = []uint32{1, 0, 1, 0, 0, 1}
	for i, w := range want {
		if got := p.Code[i].Run; got != w {
			t.Fatalf("special destinations: Run[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestWidth(t *testing.T) {
	if w := Addi.Width(); w != 1 {
		t.Fatalf("Addi.Width() = %d, want 1", w)
	}
	for _, o := range []Op{LuiAddi, AddiLw, AddiSb, SltBne, SltiuBeq} {
		if w := o.Width(); w != 2 {
			t.Fatalf("Width(%d) = %d, want 2", o, w)
		}
	}
}

func TestStatsRefSteps(t *testing.T) {
	p := compileOne(t,
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.LW, Rd: isa.Zero, Rs1: r(6)},
		isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5)},
	)
	if p.Stats.RefSteps != 2 {
		t.Fatalf("Stats.RefSteps = %d, want 2", p.Stats.RefSteps)
	}
}
