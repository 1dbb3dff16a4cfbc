package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// kernelUnderTest is one multiply kernel with the scalar reference it must
// reproduce. minC is the smallest coefficient its contract accepts: the
// unexported word kernels are only ever dispatched for c >= 2.
type kernelUnderTest struct {
	name string
	run  func(c byte, src, dst []byte)
	ref  func(c byte, src, dst []byte)
	minC int
}

// kernelsUnderTest lists the public entry points and, called directly,
// the portable word kernels — on an AVX2 host the vector prefix
// shadows them for every slice of 32 bytes or more, so they would otherwise
// only ever see tails.
var kernelsUnderTest = []kernelUnderTest{
	{"MulAddSlice", MulAddSlice, MulAddSliceScalar, 0},
	{"MulSlice", MulSlice, MulSliceScalar, 0},
	{"mulAddWords", mulAddWords, MulAddSliceScalar, 2},
	{"mulWords", mulWords, MulSliceScalar, 2},
}

// MulAddSliceScalar is the byte-at-a-time multiply-accumulate kernel the
// word-parallel and vector paths replaced: dst[i] ^= c*src[i] through the
// 64 KiB product table. It is the reference every kernel must match byte
// for byte, and BenchmarkKernels reports the speedup against it.
func MulAddSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulAddSliceScalar", len(src), len(dst)))
	}
	tbl := &mulTbl[c]
	for i, s := range src {
		dst[i] ^= tbl[s]
	}
}

// MulSliceScalar is the byte-at-a-time counterpart of MulSlice.
func MulSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulSliceScalar", len(src), len(dst)))
	}
	tbl := &mulTbl[c]
	for i, s := range src {
		dst[i] = tbl[s]
	}
}

// rowKernels are the row product's entry points: the public dispatch,
// and, called directly, the fused GFNI kernels (where the host has them
// and the length is a multiple of 32 from 64 up) and the per-row fallback.
var rowKernels = []struct {
	name string
	run  func(m *Rows, first int, in, out [][]byte)
	ok   func(n int) bool
}{
	{"MulRows", (*Rows).MulRows, func(int) bool { return true }},
	{"mulRowsFused", (*Rows).mulRowsFused, func(n int) bool { return useGFNI && n >= 2*vecBlock && n%vecBlock == 0 }},
	{"mulRowsTbl", (*Rows).mulRowsTbl, func(int) bool { return true }},
}

// checkRows runs each row kernel over the last len(out) rows of m into
// out rows placed dstOff bytes past the guard of copies of pristine (the
// windows), and fails unless every row equals the scalar reference's sum
// and every guard byte is unchanged.
func checkRows(t testing.TB, m *Rows, in, out [][]byte, pristine []byte, windows [][]byte, want []byte, dstOff int) {
	t.Helper()
	n := len(in[0])
	lo, hi := guardBytes+dstOff, guardBytes+dstOff+n
	first := len(m.c)/m.k - len(out)
	for _, rk := range rowKernels {
		if !rk.ok(n) {
			continue
		}
		for r := range out {
			copy(windows[r][:hi+guardBytes], pristine)
			out[r] = windows[r][lo:hi]
		}
		rk.run(m, first, in, out)
		for r := range out {
			want := want[:n]
			clear(want)
			for i, src := range in {
				MulAddSliceScalar(m.c[(first+r)*m.k+i], src, want)
			}
			w := windows[r][:hi+guardBytes]
			if !bytes.Equal(out[r], want) {
				t.Fatalf("%s(rows=%d, n=%d, dst+%d) row %d diverges from scalar", rk.name, len(out), n, dstOff, r)
			}
			if !bytes.Equal(w[:lo], pristine[:lo]) || !bytes.Equal(w[hi:], pristine[hi:len(w)]) {
				t.Fatalf("%s(rows=%d, n=%d, dst+%d) row %d wrote outside dst", rk.name, len(out), n, dstOff, r)
			}
		}
	}
}

// guardBytes is the untouchable margin kept on both sides of dst.
const guardBytes = 64

// checkKernel runs k on src into a dst placed dstOff bytes past the guard
// of a copy of pristine, and fails unless the payload equals the scalar
// reference and every byte outside it — both guards — is unchanged.
// window and want are scratch; window[guardBytes] should sit on a 32-byte
// boundary so dstOff is dst's misalignment.
func checkKernel(t testing.TB, k kernelUnderTest, c byte, src, pristine, window, want []byte, dstOff int) {
	t.Helper()
	n := len(src)
	lo, hi := guardBytes+dstOff, guardBytes+dstOff+n
	window = window[:hi+guardBytes]
	copy(window, pristine)
	want = want[:n]
	copy(want, pristine[lo:hi])
	k.ref(c, src, want)
	k.run(c, src, window[lo:hi])
	if !bytes.Equal(window[lo:hi], want) {
		t.Fatalf("%s(c=%#x, n=%d, dst+%d) diverges from scalar", k.name, c, n, dstOff)
	}
	if !bytes.Equal(window[:lo], pristine[:lo]) || !bytes.Equal(window[hi:], pristine[hi:len(window)]) {
		t.Fatalf("%s(c=%#x, n=%d, dst+%d) wrote outside dst", k.name, c, n, dstOff)
	}
}

// TestKernelsMatchScalar sweeps every kernel against the byte-at-a-time
// scalar reference across every coefficient, every length around the 8-,
// 16- and 32-byte loop boundaries plus two packet sizes, and src and dst
// each misaligned independently against the 32-byte vector block, with dst
// inside a larger buffer so an overrun or underrun shows in the guards. The
// row product runs the same shapes for 1 to 8 rows of a 10 x 5 block whose
// coefficients include 0 and 1.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var lengths []int
	for n := 0; n <= 97; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1024, 1500)
	offsets := []int{0, 1, 7, 8, 15, 16, 31}
	coeffs := make([]int, 256)
	for c := range coeffs {
		coeffs[c] = c
	}
	if testing.Short() { // the -race tier: same shapes, a handful of coefficients
		coeffs = []int{0, 1, 2, 0x1d, 0x53, 0x57, 0x80, 0xb7, 0xff}
	}
	// Allocations this large are page-aligned, so an offset into them is
	// the misalignment.
	const maxN = 1500
	srcBuf := make([]byte, 1<<16)
	window := make([]byte, 1<<16)
	pristine := make([]byte, guardBytes+32+maxN+guardBytes)
	want := make([]byte, maxN)
	rng.Read(srcBuf)
	rng.Read(pristine)
	const rowsK, maxRows = 5, 8
	coeffBlock := make([]byte, 10*rowsK)
	rng.Read(coeffBlock)
	coeffBlock[3], coeffBlock[17], coeffBlock[48] = 0, 1, 1
	var m Rows
	m.Set(coeffBlock, rowsK)
	in := make([][]byte, rowsK)
	windows := make([][]byte, maxRows)
	for r := range windows {
		windows[r] = make([]byte, len(pristine))
	}
	for _, n := range lengths {
		for _, srcOff := range offsets {
			src := srcBuf[srcOff : srcOff+n]
			for i := range in {
				in[i] = srcBuf[srcOff+(i+1)*2048 : srcOff+(i+1)*2048+n]
			}
			for _, dstOff := range offsets {
				for rows := 1; rows <= maxRows; rows++ {
					checkRows(t, &m, in, make([][]byte, rows), pristine, windows, want, dstOff)
				}
				for _, c := range coeffs {
					for _, k := range kernelsUnderTest {
						if c >= k.minC {
							checkKernel(t, k, byte(c), src, pristine, window, want, dstOff)
						}
					}
				}
			}
		}
	}
}

// FuzzMulAdd lets the fuzzer pick coefficient, contents, length and dst
// misalignment, and holds every kernel to the scalar reference and to its
// guards.
func FuzzMulAdd(f *testing.F) {
	f.Add(byte(0x57), []byte("0123456789abcdef0123456789abcdef"), []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ012345"), byte(0))
	f.Add(byte(0xff), bytes.Repeat([]byte{0xa5, 0x0f, 0xf0}, 43), bytes.Repeat([]byte{0x3c}, 129), byte(31))
	f.Add(byte(2), bytes.Repeat([]byte{0xff}, 1500), make([]byte, 1500), byte(15))
	f.Add(byte(1), []byte{1, 2, 3}, []byte{4, 5, 6}, byte(7))
	f.Add(byte(0), []byte{}, []byte{}, byte(1))
	f.Fuzz(func(t *testing.T, c byte, src, dst []byte, off byte) {
		n := min(len(src), len(dst))
		dstOff := int(off) % vecBlock
		pristine := make([]byte, guardBytes+dstOff+n+guardBytes)
		for i := range pristine {
			pristine[i] = byte(i*7 + 3)
		}
		copy(pristine[guardBytes+dstOff:], dst[:n])
		window := make([]byte, len(pristine))
		want := make([]byte, n)
		for _, k := range kernelsUnderTest {
			if int(c) >= k.minC {
				checkKernel(t, k, c, src[:n], pristine, window, want, dstOff)
			}
		}
	})
}

// TestKernelMatchesCPUInfo checks the CPUID/XGETBV qualification against
// the kernel's own view of the CPU, where the host offers one.
func TestKernelMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	want := "portable"
	if runtime.GOARCH == "amd64" {
		for _, line := range strings.Split(string(info), "\n") {
			if flags := strings.Fields(line); strings.HasPrefix(line, "flags") && slices.Contains(flags, "avx2") {
				want = "avx2"
				if slices.Contains(flags, "gfni") {
					want = "gfni"
				}
				break
			}
		}
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, /proc/cpuinfo says %q", got, want)
	}
}

// TestNibbleTablesConsistent pins the split-nibble identity the word kernel
// relies on: c*x == mulLo[c][x&15] ^ mulHi[c][x>>4] for every (c, x).
func TestNibbleTablesConsistent(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			want := Mul(byte(c), byte(x))
			got := mulLo[c][x&15] ^ mulHi[c][x>>4]
			if got != want {
				t.Fatalf("nibble split of %#x*%#x = %#x, want %#x", c, x, got, want)
			}
		}
	}
}

// TestKernelsIdenticalAlias checks the documented aliasing contract:
// src and dst may be the same slice.
func TestKernelsIdenticalAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 32, 64, 100, 1000, 1024} {
		for _, c := range []byte{0, 1, 2, 0x53} {
			buf := make([]byte, n)
			rng.Read(buf)
			for _, k := range kernelsUnderTest {
				if int(c) < k.minC {
					continue
				}
				want := append([]byte(nil), buf...)
				k.ref(c, want, want)
				got := append([]byte(nil), buf...)
				k.run(c, got, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s self-alias (c=%#x, n=%d) diverges", k.name, c, n)
				}
			}
		}
	}
}

// TestPairTableConcurrentPublish races first uses of one coefficient's pair
// table from several goroutines: every caller must come away with the one
// published table and a correct product (run under -race by check.sh).
func TestPairTableConcurrentPublish(t *testing.T) {
	const c, workers = 0xb7, 8
	pairTbls[c].Store(nil)
	src := make([]byte, 100)
	rand.New(rand.NewSource(13)).Read(src)
	want := make([]byte, len(src))
	MulSliceScalar(c, src, want)
	tables := make([]*[65536]uint16, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tables[w] = pairTableFor(c)
			got := make([]byte, len(src))
			mulWords(c, src, got)
			if !bytes.Equal(got, want) {
				t.Errorf("worker %d: mulWords diverges from scalar", w)
			}
		}(w)
	}
	wg.Wait()
	for w, tbl := range tables {
		if tbl != tables[0] {
			t.Fatalf("worker %d got a different pair table than worker 0", w)
		}
	}
}

func TestAddSliceMatchesXor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 8, 9, 33, 1024} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		AddSlice(src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("AddSlice(n=%d) wrong", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AddSlice length mismatch did not panic")
		}
	}()
	AddSlice(make([]byte, 3), make([]byte, 4))
}

// BenchmarkKernels is the micro-benchmark suite behind the Fig-1 hot path:
// the dispatched kernels (Kernel() names which) against the scalar
// reference they replaced (the acceptance gate of PR 2 requires >= 2x on
// MulAdd at 1 KiB), plus the portable pair-table kernel on its own, which
// the vector prefix shadows on AVX2 hosts.
func BenchmarkKernels(b *testing.B) {
	sizes := []int{64, 1024, 4096}
	const c = 0x57
	for _, n := range sizes {
		src := make([]byte, n)
		dst := make([]byte, n)
		rand.New(rand.NewSource(2)).Read(src)
		pairTableFor(c) // build outside the timed region
		name := func(op string) string { return fmt.Sprintf("%s/%dB", op, n) }
		run := func(op string, f func()) {
			b.Run(name(op), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
		run("MulAdd", func() { MulAddSlice(c, src, dst) })
		run("MulAddScalarRef", func() { MulAddSliceScalar(c, src, dst) })
		run("MulAddPairTable", func() { mulAddWords(c, src, dst) })
		run("Mul", func() { MulSlice(c, src, dst) })
		run("MulScalarRef", func() { MulSliceScalar(c, src, dst) })
		run("Xor", func() { AddSlice(src, dst) })
		run("XorScalarRef", func() { MulAddSliceScalar(1, src, dst) })
	}
}

// BenchmarkRows times the row product at the paper's k = 20 over 1 KiB
// shards, in ns per call of one and of four parity rows: the dispatched
// path (the fused kernel on a GFNI host) and the per-row fallback.
func BenchmarkRows(b *testing.B) {
	const k, n = 20, 1024
	rng := rand.New(rand.NewSource(3))
	coeffs := make([]byte, 4*k)
	rng.Read(coeffs)
	var m Rows
	m.Set(coeffs, k)
	in := make([][]byte, k)
	for i := range in {
		in[i] = make([]byte, n)
		rng.Read(in[i])
	}
	out := [][]byte{make([]byte, n), make([]byte, n), make([]byte, n), make([]byte, n)}
	for _, rows := range []int{1, 4} {
		b.Run(fmt.Sprintf("MulRows/%drows", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulRows(0, in, out[:rows])
			}
		})
		b.Run(fmt.Sprintf("Tbl/%drows", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.mulRowsTbl(0, in, out[:rows])
			}
		})
	}
}
