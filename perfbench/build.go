package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"nacho/internal/asm"
	"nacho/internal/compile"
	"nacho/internal/harness"
	"nacho/internal/isa"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// buildTimes collects set-up timings, in milliseconds, of turning programs
// into machines: assembling, building the image, compiling its text, and
// building a machine over it.
type buildTimes struct {
	asm, build, compile, machine []float64
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// benchmarkImage builds benchmark p from source the way program.Build does,
// timing each step, checks the image equals the cached build that
// experiments run, and returns the cached build.
func (b *buildTimes) benchmarkImage(p *program.Program, kind systems.Kind, cfg harness.RunConfig) (*program.Image, error) {
	src := p.Source()
	t := time.Now()
	if _, err := asm.Assemble(src, asm.Options{TextBase: program.TextBase, DataBase: program.DataBase}); err != nil {
		return nil, fmt.Errorf("assemble %s: %w", p.Name, err)
	}
	b.asm = append(b.asm, msSince(t))

	t = time.Now()
	img, err := program.FromSource(p.Name, src)
	if err != nil {
		return nil, err
	}
	b.build = append(b.build, msSince(t))
	cached, err := p.Build()
	if err != nil {
		return nil, err
	}
	if err := sameImage(img, cached); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := b.compileText(img); err != nil {
		return nil, err
	}
	if err := b.buildMachine(img, kind, cfg); err != nil {
		return nil, err
	}
	return cached, nil
}

// compileText times compiling img's decoded text.
func (b *buildTimes) compileText(img *program.Image) error {
	instrs, err := decodeText(img)
	if err != nil {
		return err
	}
	t := time.Now()
	compile.Compile(instrs)
	b.compile = append(b.compile, msSince(t))
	return nil
}

// buildMachine times building a machine for img on kind.
func (b *buildTimes) buildMachine(img *program.Image, kind systems.Kind, cfg harness.RunConfig) error {
	t := time.Now()
	if _, _, err := harness.BuildMachine(img, kind, cfg); err != nil {
		return fmt.Errorf("build machine for %s on %s: %w", img.Program.Name, kind, err)
	}
	b.machine = append(b.machine, msSince(t))
	return nil
}

func (b *buildTimes) report(m metricSet) {
	m.set("asm.render_ms", median(b.asm), "ms")
	m.set("program.build_ms", median(b.build), "ms")
	m.set("compile.text_ms", median(b.compile), "ms")
	m.set("harness.build_machine_ms", median(b.machine), "ms")
}

func sameImage(a, b *program.Image) error {
	if a.Entry != b.Entry || len(a.Segments) != len(b.Segments) {
		return fmt.Errorf("image from source differs from the cached build")
	}
	for i := range a.Segments {
		if a.Segments[i].Addr != b.Segments[i].Addr || !bytes.Equal(a.Segments[i].Data, b.Segments[i].Data) {
			return fmt.Errorf("image from source differs from the cached build in segment %#x", a.Segments[i].Addr)
		}
	}
	return nil
}

// decodeText decodes the image's text segment word by word.
func decodeText(img *program.Image) ([]isa.Instr, error) {
	for _, seg := range img.Segments {
		if seg.Addr != program.TextBase {
			continue
		}
		out := make([]isa.Instr, len(seg.Data)/4)
		for i := range out {
			in, err := isa.Decode(binary.LittleEndian.Uint32(seg.Data[4*i:]))
			if err != nil {
				return nil, fmt.Errorf("%s: text word %d: %w", img.Program.Name, i, err)
			}
			out[i] = in
		}
		return out, nil
	}
	return nil, fmt.Errorf("%s: no text segment", img.Program.Name)
}
