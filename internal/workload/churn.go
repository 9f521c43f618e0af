// Package workload synthesizes non-OO7 application traces. The paper's §5
// asks whether applications other than its OO7 benchmark violate the
// policies' assumptions; this package provides a contrasting workload to
// probe exactly that:
//
//   - garbage arrives as single leaf objects, not clusters, so naive
//     connectivity-based prediction is nearly exact here (unlike OO7);
//   - churn is skewed (a hot subset of containers takes most updates);
//   - workload intensity changes across phases (steady → burst → quiet →
//     steady), stressing responsiveness differently than OO7's two
//     reorganizations.
package workload

import (
	"fmt"
	"math/rand"

	"odbgc/internal/objstore"
	"odbgc/internal/trace"
)

// ChurnParams describe a directory/file churn workload: a fixed set of
// rooted directories, each holding FilesPerDir leaf files; churn replaces
// random files, making the old file garbage immediately.
type ChurnParams struct {
	// Dirs is the number of rooted directory objects.
	Dirs int
	// FilesPerDir is the slot count (and initial file count) per directory.
	FilesPerDir int
	// FileSizeMin/Max bound the (uniform) file sizes in bytes.
	FileSizeMin, FileSizeMax int
	// DirBytes is the directory object size.
	DirBytes int

	// SteadyOps is the number of replace operations in each steady phase.
	SteadyOps int
	// BurstOps is the number of replace operations in the burst phase,
	// issued without interleaved read traffic.
	BurstOps int
	// QuietReads is the number of read accesses in the quiet phase.
	QuietReads int
	// ReadsPerOp is the read traffic interleaved with each steady replace.
	ReadsPerOp int

	// HotFraction of the directories receive HotShare of the churn.
	HotFraction float64
	// HotShare is the probability a churn operation hits the hot set.
	HotShare float64
}

// DefaultChurn returns a workload comparable in size to the OO7 Small'
// trace: ~3 MB of data and ~20k replace operations.
func DefaultChurn() ChurnParams {
	return ChurnParams{
		Dirs:        200,
		FilesPerDir: 30,
		FileSizeMin: 200,
		FileSizeMax: 800,
		DirBytes:    400,
		SteadyOps:   8000,
		BurstOps:    4000,
		QuietReads:  8000,
		ReadsPerOp:  2,
		HotFraction: 0.2,
		HotShare:    0.8,
	}
}

// Validate checks the parameters.
func (p ChurnParams) Validate() error {
	switch {
	case p.Dirs < 1 || p.FilesPerDir < 1:
		return fmt.Errorf("workload: need at least one directory and file slot")
	case p.FileSizeMin < 1 || p.FileSizeMax < p.FileSizeMin:
		return fmt.Errorf("workload: bad file size range [%d,%d]", p.FileSizeMin, p.FileSizeMax)
	case p.DirBytes < 1:
		return fmt.Errorf("workload: DirBytes must be positive")
	case p.SteadyOps < 0 || p.BurstOps < 0 || p.QuietReads < 0 || p.ReadsPerOp < 0:
		return fmt.Errorf("workload: negative op counts")
	case p.HotFraction < 0 || p.HotFraction > 1 || p.HotShare < 0 || p.HotShare > 1:
		return fmt.Errorf("workload: hot fractions must be in [0,1]")
	}
	return nil
}

// Phase labels emitted by the churn workload.
const (
	PhaseBuild   = "Build"
	PhaseSteady1 = "Steady1"
	PhaseBurst   = "Burst"
	PhaseQuiet   = "Quiet"
	PhaseSteady2 = "Steady2"
)

// churnGen carries generation state.
type churnGen struct {
	p   ChurnParams
	rng *rand.Rand
	tr  trace.Builder
	st  *objstore.Store

	dirs []objstore.OID
	hot  int // the first hot dirs in the slice are the hot set
}

// Churn generates the five-phase churn trace for the given seed.
func Churn(p ChurnParams, seed int64) (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &churnGen{
		p:   p,
		rng: rand.New(rand.NewSource(seed)),
		st:  objstore.NewStore(),
		hot: int(float64(p.Dirs) * p.HotFraction),
	}
	if err := g.build(); err != nil {
		return nil, err
	}
	g.phase(PhaseSteady1)
	if err := g.steady(p.SteadyOps); err != nil {
		return nil, err
	}
	g.phase(PhaseBurst)
	if err := g.burst(p.BurstOps); err != nil {
		return nil, err
	}
	g.phase(PhaseQuiet)
	if err := g.quiet(p.QuietReads); err != nil {
		return nil, err
	}
	g.phase(PhaseSteady2)
	if err := g.steady(p.SteadyOps); err != nil {
		return nil, err
	}
	return g.tr.Trace(), nil
}

func (g *churnGen) phase(label string) {
	g.tr.Append(trace.Event{Kind: trace.KindPhase, Label: label})
}

func (g *churnGen) fileSize() int {
	return g.p.FileSizeMin + g.rng.Intn(g.p.FileSizeMax-g.p.FileSizeMin+1)
}

func (g *churnGen) create(class objstore.Class, size, nslots int) (objstore.OID, error) {
	o, err := g.st.Create(class, size, nslots)
	if err != nil {
		return objstore.NilOID, err
	}
	g.tr.Append(trace.Event{Kind: trace.KindCreate, OID: o.OID, Class: class, Size: size, Slots: nslots})
	return o.OID, nil
}

func (g *churnGen) build() error {
	g.phase(PhaseBuild)
	for d := 0; d < g.p.Dirs; d++ {
		dir, err := g.create(objstore.ClassUnknown, g.p.DirBytes, g.p.FilesPerDir)
		if err != nil {
			return err
		}
		if err := g.st.AddRoot(dir); err != nil {
			return err
		}
		g.tr.Append(trace.Event{Kind: trace.KindRoot, OID: dir, Size: 1})
		g.dirs = append(g.dirs, dir)
		for f := 0; f < g.p.FilesPerDir; f++ {
			file, err := g.create(objstore.ClassDocument, g.fileSize(), 0)
			if err != nil {
				return err
			}
			if _, err := g.st.SetSlot(dir, f, file); err != nil {
				return err
			}
			// Wiring a fresh file into its directory is an initializing
			// store during Build only.
			g.tr.Append(trace.Event{
				Kind: trace.KindOverwrite, OID: dir, Slot: f, New: file, Init: true,
			})
		}
	}
	return nil
}

// pickDir applies the hot/cold skew.
func (g *churnGen) pickDir() objstore.OID {
	if g.hot > 0 && g.rng.Float64() < g.p.HotShare {
		return g.dirs[g.rng.Intn(g.hot)]
	}
	return g.dirs[g.rng.Intn(len(g.dirs))]
}

// replace swaps one random file of one directory: the old file becomes
// garbage in a single overwrite (create new; point slot at it).
func (g *churnGen) replace() error {
	dir := g.pickDir()
	slot := g.rng.Intn(g.p.FilesPerDir)
	d := g.st.Get(dir)
	if d == nil {
		return fmt.Errorf("workload: directory %v vanished", dir)
	}
	oldFile := d.Slots[slot]
	newFile, err := g.create(objstore.ClassDocument, g.fileSize(), 0)
	if err != nil {
		return err
	}
	old, err := g.st.SetSlot(dir, slot, newFile)
	if err != nil {
		return err
	}
	ev := trace.Event{Kind: trace.KindOverwrite, OID: dir, Slot: slot, Old: old, New: newFile}
	if !oldFile.IsNil() {
		f := g.st.Get(oldFile)
		if f == nil {
			return fmt.Errorf("workload: replaced file %v vanished", oldFile)
		}
		ev.Dead = g.tr.Dead(1)
		ev.Dead[0] = trace.DeadObject{OID: oldFile, Size: f.Size}
	}
	g.tr.Append(ev)
	return nil
}

func (g *churnGen) access(oid objstore.OID) {
	g.tr.Append(trace.Event{Kind: trace.KindAccess, OID: oid})
}

// randomRead accesses a random directory and one of its live files.
func (g *churnGen) randomRead() error {
	dir := g.pickDir()
	g.access(dir)
	d := g.st.Get(dir)
	if d == nil {
		return fmt.Errorf("workload: directory %v vanished", dir)
	}
	if f := d.Slots[g.rng.Intn(len(d.Slots))]; !f.IsNil() {
		g.access(f)
	}
	return nil
}

func (g *churnGen) steady(ops int) error {
	for i := 0; i < ops; i++ {
		if err := g.replace(); err != nil {
			return err
		}
		for r := 0; r < g.p.ReadsPerOp; r++ {
			if err := g.randomRead(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *churnGen) burst(ops int) error {
	for i := 0; i < ops; i++ {
		if err := g.replace(); err != nil {
			return err
		}
	}
	return nil
}

func (g *churnGen) quiet(reads int) error {
	for i := 0; i < reads; i++ {
		if err := g.randomRead(); err != nil {
			return err
		}
	}
	return nil
}
