package main

import (
	"bytes"
	"context"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// equivShape is the historical 16^3 / 2-level scale: small enough for a
// unit test, large enough for the full phase structure.
var equivShape = fig1Shape{NX: 16, MGLevels: 2, Iters: 3, Period: 400}

// TestStagedSessionMatchesRunHPCG pins that the benchmark's staged
// Session calls are the pipeline users run: the same PRV/PCF bytes, phase
// table and paper labels as core.RunHPCG, with the per-step timing wrapper
// of a traced pass in place.
func TestStagedSessionMatchesRunHPCG(t *testing.T) {
	cfg := fig1Config(equivShape.Period)
	ref, err := core.RunHPCG(cfg, equivShape.params())
	if err != nil {
		t.Fatal(err)
	}
	var refPRV, refPCF, refCSV, refTable bytes.Buffer
	if err := ref.Session.WriteTrace(&refPRV, &refPCF); err != nil {
		t.Fatal(err)
	}
	if err := report.WritePhasesCSV(&refCSV, ref.Folded); err != nil {
		t.Fatal(err)
	}
	if err := ref.Figure1().RenderPhaseTable(&refTable); err != nil {
		t.Fatal(err)
	}

	st, err := setupSession(cfg, equivShape.params())
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	err = st.simulate(func(step func() (bool, error)) (bool, error) {
		steps++
		return step()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.fold(); err != nil {
		t.Fatal(err)
	}
	if err := st.analyze(io.Discard); err != nil {
		t.Fatal(err)
	}
	var prv, pcf, table bytes.Buffer
	if err := st.encodeTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	csv := map[string]*bytes.Buffer{}
	if err := st.encodeCSV(func(name string) io.Writer {
		csv[name] = &bytes.Buffer{}
		return csv[name]
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.run.Figure1().RenderPhaseTable(&table); err != nil {
		t.Fatal(err)
	}

	if steps != equivShape.Iters {
		t.Errorf("%d timed steps, want %d", steps, equivShape.Iters)
	}
	if !bytes.Equal(prv.Bytes(), refPRV.Bytes()) || !bytes.Equal(pcf.Bytes(), refPCF.Bytes()) {
		t.Errorf("staged trace differs from core.RunHPCG: PRV %d vs %d bytes, PCF %d vs %d bytes",
			prv.Len(), refPRV.Len(), pcf.Len(), refPCF.Len())
	}
	if !bytes.Equal(csv["phases.csv"].Bytes(), refCSV.Bytes()) || table.String() != refTable.String() {
		t.Errorf("staged phase table differs from core.RunHPCG:\n%s\nwant:\n%s", table.String(), refTable.String())
	}
	if got, want := phaseLabels(st.run.Paper), phaseLabels(ref.Paper); !slices.Equal(got, want) {
		t.Errorf("paper labels %v, want %v", got, want)
	}
	if len(csv) != len(csvNames) {
		t.Errorf("wrote %d CSV series, want %d", len(csv), len(csvNames))
	}
	if problems := checkShape(st.run.Paper, true, st.run.MatrixGroup(), st.run.MapGroup(), st.sess.Mon.Registry().ResolutionRate()); len(problems) > 0 {
		t.Errorf("shape check failed on the reference configuration: %v", problems)
	}
}

// TestStagedMachineMatchesRunHPCGParallel pins the staged Machine calls
// against core.RunHPCGParallel. One thread is the deterministic schedule
// (the 2-thread workload is not byte-reproducible, so this is where its
// composition is checked).
func TestStagedMachineMatchesRunHPCGParallel(t *testing.T) {
	cfg := fig1Config(equivShape.Period)
	ref, err := core.RunHPCGParallel(context.Background(), cfg, equivShape.params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var refPRV, refPCF bytes.Buffer
	if err := ref.Machine.WriteTrace(&refPRV, &refPCF); err != nil {
		t.Fatal(err)
	}

	st, err := setupMachine(cfg, equivShape.params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if err := st.simulate(); err != nil {
		t.Fatal(err)
	}
	if err := st.fold(); err != nil {
		t.Fatal(err)
	}
	if err := st.analyze(io.Discard); err != nil {
		t.Fatal(err)
	}
	var prv, pcf bytes.Buffer
	if err := st.encodeTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prv.Bytes(), refPRV.Bytes()) || !bytes.Equal(pcf.Bytes(), refPCF.Bytes()) {
		t.Errorf("staged machine trace differs from core.RunHPCGParallel: PRV %d vs %d bytes", prv.Len(), refPRV.Len())
	}
	if got, want := phaseLabels(st.run.Threads[0].Paper), phaseLabels(ref.Threads[0].Paper); !slices.Equal(got, want) {
		t.Errorf("paper labels %v, want %v", got, want)
	}
}
