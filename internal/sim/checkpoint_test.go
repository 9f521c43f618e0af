package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/simerr"
	"odbgc/internal/trace"
)

// encodeResult canonicalizes a Result for bit-identical comparison (gob
// encodes NaN deterministically, unlike reflect.DeepEqual which rejects it).
func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runSplit replays tr twice with identically configured simulators: once
// straight through, once checkpointing near the midpoint and resuming from
// the image into a fresh simulator. Returns the canonical encodings of both
// results.
func runSplit(t *testing.T, tr *trace.Trace, mkConfig func() Config) (full, resumed []byte) {
	t.Helper()

	s1, err := New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	resA, err := s1.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Events) / 2
	i := 0
	for ; i < len(tr.Events) && (i < half || s2.loop.midBuild); i++ {
		if err := s2.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Resume(mkConfig(), img)
	if err != nil {
		t.Fatal(err)
	}
	for ; i < len(tr.Events); i++ {
		if err := s3.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	resB, err := s3.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return encodeResult(t, resA), encodeResult(t, resB)
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	tr := smallTrace(t, 3, 11)
	mkConfig := func() Config {
		est, err := core.NewFGSHB(0.8)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Policy: pol}
	}
	full, resumed := runSplit(t, tr, mkConfig)
	if !bytes.Equal(full, resumed) {
		t.Fatal("resumed run's summary differs from the uninterrupted run")
	}
}

func TestCheckpointRejectsMidConstruction(t *testing.T) {
	tr := smallTrace(t, 3, 13)
	pol, err := core.NewFixedRate(500)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if s.loop.midBuild {
			if _, err := s.Checkpoint(); err == nil {
				t.Fatal("checkpoint accepted mid-construction")
			}
			return
		}
	}
	t.Fatal("trace had no mid-construction point")
}

// TestResumeRejectsMismatchedConfig: resuming under a different policy or
// selection than the checkpointed run must fail loudly, not silently run the
// wrong configuration.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	tr := smallTrace(t, 3, 15)
	mkSAGA := func() core.RatePolicy {
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, core.OracleEstimator{})
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	s, err := New(Config{Policy: mkSAGA()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Events)/2 || s.loop.midBuild; i++ {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := core.NewFixedRate(200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{Policy: fixed}, cp); err == nil {
		t.Fatal("resume accepted a different policy than the checkpointed run")
	}
	sel, err := gc.NewSelectionPolicy("round-robin", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{Policy: mkSAGA(), Selection: sel}, cp); err == nil {
		t.Fatal("resume accepted a different selection policy than the checkpointed run")
	}
	if _, err := Resume(Config{Policy: mkSAGA()}, cp); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}

	// An image that fails validation is a corrupt checkpoint, wherever the
	// damage lies; an OID flipped into the far distance must not size a
	// table on the way to that verdict. Each page is resealed, so the damage
	// reaches the checks behind the checksums.
	oid := binary.LittleEndian.Uint64(pagePayload(cp, false, 0))
	nparts := int(binary.LittleEndian.Uint32(pagePayload(cp, true, 0)[12:]))
	for name, damage := range map[string][]byte{
		"object OID":    damaged(cp, false, 0, binary.LittleEndian.AppendUint64(nil, oid^1<<57)),
		"object flags":  damaged(cp, false, 9, []byte{0x80}),
		"placement":     damaged(cp, true, 16+8*nparts, []byte{0x7f}),
		"used bytes":    damaged(cp, true, 20, []byte{0xff}),
		"unsealed page": func() []byte { img := bytes.Clone(cp); img[3*pageSize-1] ^= 1; return img }(),
	} {
		_, err = Resume(Config{Policy: mkSAGA()}, damage)
		if !errors.Is(err, simerr.ErrCorruptCheckpoint) {
			t.Errorf("checkpoint with damaged %s: Resume = %v, want a corrupt-checkpoint error", name, err)
		}
	}
}

// The layout of a checkpoint image (disk's image format 4), as far as the
// damage below needs it: 8 KB pages, each headed by a CRC32-C of the rest of
// the page, a kind byte, a record count, the number of the next page of its
// chain and the payload bytes used. A simulator's image is a fresh database's
// first checkpoint, so its meta is page 1; its payload names the object
// chain's first page at offset 36 and the state chain's at 56, and holds their
// pages' sum at 48: FNV-1a over each page's number and CRC, in chain order.
const (
	pageSize = 8192
	pageHdr  = 15
)

// chains returns the pages of img's object chain and of its state chain.
func chains(img []byte) (objects, state []int) {
	meta := img[pageSize+pageHdr:]
	walk := func(at int) (pages []int) {
		for no := int(binary.LittleEndian.Uint32(meta[at:])); no != 0; no = int(binary.LittleEndian.Uint32(img[no*pageSize+7:])) {
			pages = append(pages, no)
		}
		return pages
	}
	return walk(36), walk(56)
}

// pagePayload returns the payload of the first page of the state chain, or
// of the object chain.
func pagePayload(img []byte, state bool, off int) []byte {
	objects, st := chains(img)
	no := objects[0]
	if state {
		no = st[0]
	}
	return img[no*pageSize+pageHdr+off : (no+1)*pageSize]
}

// damaged returns a copy of img with b written at offset off of the payload of
// the first page of the state chain, or of the object chain, that page's CRC
// restamped and the meta's sum refolded.
func damaged(img []byte, state bool, off int, b []byte) []byte {
	img = bytes.Clone(img)
	copy(pagePayload(img, state, off), b)
	crc := crc32.MakeTable(crc32.Castagnoli)
	le := binary.LittleEndian
	objects, st := chains(img)
	sum := uint64(0xcbf2_9ce4_8422_2325)
	for _, no := range append(objects, st...) {
		page := img[no*pageSize:][:pageSize]
		le.PutUint32(page, crc32.Checksum(page[4:], crc))
		sum = (sum ^ (uint64(no)<<32 | uint64(le.Uint32(page)))) * 0x100_0000_01b3
	}
	meta := img[pageSize:][:pageSize]
	le.PutUint64(meta[pageHdr+48:], sum)
	le.PutUint32(meta, crc32.Checksum(meta[4:], crc))
	return img
}

// TestResumeBitIdenticalEveryComponent: a checkpoint carries the state of
// every rate policy, estimator and selection policy, so a run checkpointed
// at its midpoint and resumed collects exactly where the uninterrupted run
// does. It covers every core.NewPolicy name over FGS/HB, SAIO with a c_hist
// window too (its history and last application clock are read only then),
// SAGA over every estimator, and fixed(50) under every selection policy.
func TestResumeBitIdenticalEveryComponent(t *testing.T) {
	tr := smallTrace(t, 3, 11)
	type combo struct {
		policy, estimator, selection string
		hist                         int // SAIO's c_hist
	}
	var combos []combo
	for _, p := range []string{"saio", "saga", "pi", "coupled", "fixed", "never"} {
		combos = append(combos, combo{p, "fgs-hb", "updated-pointer", 0})
	}
	combos = append(combos, combo{"saio", "fgs-hb", "updated-pointer", 3})
	for _, e := range []string{"oracle", "cgs-cb", "fgs-window", "fgs-pp", "fallback"} {
		combos = append(combos, combo{"saga", e, "updated-pointer", 0})
	}
	for _, s := range []string{"random", "round-robin", "oracle-max-garbage", "hybrid"} {
		combos = append(combos, combo{"fixed", "fgs-hb", s, 0})
	}
	collections := func(t *testing.T, encoded []byte) []byte {
		t.Helper()
		var res Result
		if err := gob.NewDecoder(bytes.NewReader(encoded)).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if len(res.Collections) == 0 && res.PolicyName != "never" {
			t.Fatalf("%s under %s collected nothing", res.PolicyName, res.SelectionName)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res.Collections); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range combos {
		policy := c.policy
		if c.hist > 0 {
			policy = fmt.Sprintf("%s(hist=%d)", c.policy, c.hist)
		}
		t.Run(policy+"/"+c.estimator+"/"+c.selection, func(t *testing.T) {
			mkConfig := func() Config {
				pol, err := core.NewPolicy(c.policy, core.PolicyParams{Frac: 0.10, Interval: 50, Hist: c.hist,
					Estimator: func() (core.Estimator, error) { return core.NewEstimator(c.estimator, 0) }})
				if err != nil {
					t.Fatal(err)
				}
				sel, err := gc.NewSelectionPolicy(c.selection, 7)
				if err != nil {
					t.Fatal(err)
				}
				return Config{Policy: pol, Selection: sel}
			}
			full, resumed := runSplit(t, tr, mkConfig)
			if !bytes.Equal(collections(t, full), collections(t, resumed)) {
				t.Fatal("the resumed run's collections differ from the uninterrupted run's")
			}
		})
	}
}
