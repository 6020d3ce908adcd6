package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tridiag/eigen"
	"tridiag/internal/lapack"
	"tridiag/internal/testmat"
)

// gaussian is the matrix-type code of the random Gaussian matrix (d and e
// drawn from N(0,1)), the historic headline matrix; codes 1..15 are the
// Table III types of testmat.Type.
const gaussian = 0

// input is one generated matrix with the reference the answers are checked
// against.
type input struct {
	typ int
	tri eigen.Tridiagonal
	// ref holds the ascending eigenvalues computed by lapack.Dsterf, tol the
	// allowed deviation n·ε·‖T‖₁ of any computed eigenvalue from them.
	ref []float64
	tol float64
}

func (in *input) n() int { return len(in.tri.D) }

func typeName(typ int) string {
	if typ == gaussian {
		return "gaussian"
	}
	return fmt.Sprintf("type%d", typ)
}

// inputSeed derives the generator seed of the idx-th matrix of type typ and
// order n from the workload seed.
func inputSeed(seed int64, typ, n, idx int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(typ)<<40 ^ uint64(n)<<16 ^ uint64(idx)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x >> 1)
}

// generator makes the workload inputs, caching the expensive ones on disk.
// The cache key holds the seed, type, order and a digest of the testmat
// sources, so a generator change never serves a stale matrix.
type generator struct {
	cacheDir string
	srcHash  string
}

func newGenerator(root, cacheDir string) (*generator, error) {
	h, err := testmatDigest(filepath.Join(root, "internal", "testmat"))
	if err != nil {
		return nil, err
	}
	return &generator{cacheDir: cacheDir, srcHash: h}, nil
}

// testmatDigest hashes the generator's non-test Go sources.
func testmatDigest(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	found := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			return "", fmt.Errorf("hash testmat sources: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(b))
		h.Write(b)
		found++
	}
	if found == 0 {
		return "", fmt.Errorf("no testmat sources in %s", dir)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// matrix returns the idx-th matrix of type typ and order n for the seed.
// Gaussian matrices are cheap and never cached.
func (g *generator) matrix(seed int64, typ, n, idx int) (eigen.Tridiagonal, error) {
	rng := rand.New(rand.NewSource(inputSeed(seed, typ, n, idx)))
	if typ == gaussian {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		return eigen.Tridiagonal{D: d, E: e}, nil
	}
	path := filepath.Join(g.cacheDir, fmt.Sprintf("type%d-n%d-seed%d-idx%d-%s.bin", typ, n, seed, idx, g.srcHash))
	if t, err := readMatrix(path, n); err == nil {
		return t, nil
	}
	m, err := testmat.Type(typ, n, rng)
	if err != nil {
		return eigen.Tridiagonal{}, err
	}
	t := eigen.Tridiagonal{D: m.D, E: m.E}
	if g.cacheDir != "" {
		if err := writeMatrix(path, t); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: input cache: %v\n", err)
		}
	}
	return t, nil
}

func readMatrix(path string, n int) (eigen.Tridiagonal, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return eigen.Tridiagonal{}, err
	}
	if len(b) != 8*(2*n-1) {
		return eigen.Tridiagonal{}, fmt.Errorf("%s: %d bytes, want %d", path, len(b), 8*(2*n-1))
	}
	v := make([]float64, 2*n-1)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return eigen.Tridiagonal{D: v[:n:n], E: v[n:]}, nil
}

func writeMatrix(path string, t eigen.Tridiagonal) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b := make([]byte, 0, 8*(len(t.D)+len(t.E)))
	for _, v := range append(append([]float64(nil), t.D...), t.E...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// reference computes the Dsterf eigenvalues and the eigenvalue tolerance of
// a matrix.
func reference(typ int, t eigen.Tridiagonal) (*input, error) {
	n := t.N()
	ref := append([]float64(nil), t.D...)
	e := append([]float64(nil), t.E...)
	if err := lapack.Dsterf(n, ref, e); err != nil {
		return nil, fmt.Errorf("reference eigenvalues of %s n=%d: %w", typeName(typ), n, err)
	}
	tol := float64(n) * lapack.Eps * lapack.Dlanst('1', n, t.D, t.E)
	return &input{typ: typ, tri: t, ref: ref, tol: tol}, nil
}

// genSpec asks for count matrices of one type and order.
type genSpec struct{ typ, n, count int }

// generate makes every input of specs, in parallel across the matrices (the
// Table III generator runs Lanczos with full reorthogonalization, which is
// the slow part), and computes their references.
func (g *generator) generate(seed int64, specs []genSpec, par int) ([]*input, time.Duration, error) {
	start := time.Now()
	type job struct{ spec, idx, slot int }
	var jobs []job
	for si, s := range specs {
		for k := 0; k < s.count; k++ {
			jobs = append(jobs, job{si, k, len(jobs)})
		}
	}
	out := make([]*input, len(jobs))
	errs := make([]error, len(jobs))
	parallel(len(jobs), par, func(i int) {
		j := jobs[i]
		s := specs[j.spec]
		t, err := g.matrix(seed, s.typ, s.n, j.idx)
		if err == nil {
			out[j.slot], err = reference(s.typ, t)
		}
		errs[j.slot] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return out, time.Since(start), nil
}
