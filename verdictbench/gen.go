package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	hth "repro"
	"repro/internal/corpus"
	"repro/internal/vos"
)

// Input generation. Every workload draws its job list from a
// math/rand source seeded with --seed, so one seed always yields the
// same list. The program under test only ever sees the generated
// inputs (scenarios, guest sources, stdin bytes), never the seed.
//
// Cost stability across seeds matters as much as variety: a run's
// throughput must not depend on which jobs a seed happened to draw.
// So the guest workloads are stratified — every (kind, size class,
// taint density) stratum appears exactly once per cycle — and the
// seed varies order, stdin bytes, taint placement, and sizes within a
// class.

// Guest memory layout: the working set lives in runtime scratch
// memory (demand-zero pages, never tagged by the loader), with the
// copy destination 1 MiB above the source.
const (
	srcBase = 0x200000
	dstBase = 0x300000
)

// job is one generated input.
type job struct {
	Scenario *corpus.Scenario // corpus
	Guest    *guest           // guest-loops and event-storm
	Tenant   string           // the tenant its service submission carries
}

// guest is one benchmark-owned guest program with its inputs.
type guest struct {
	Kind    string // alu|copy|checksum|sparse|strlen (loops); file|read|net|proc (storm)
	Class   int    // size-class index (0 = smallest)
	WS      int    // working set in bytes (loops)
	Iters   int    // passes over the working set, or ALU iterations
	Density string // none|sparse|dense (loops)
	TaintAt int    // byte offset of a sparse taint island
	Reps    int    // storm repetitions (syscalls = Reps * stormSyscalls[Kind])
	Stdin   []byte
	Src     string
}

// String renders the job for the determinism test and diagnostics.
func (j job) String() string {
	switch {
	case j.Guest != nil:
		g := j.Guest
		h := fnv.New64a()
		h.Write(g.Stdin)
		return fmt.Sprintf("%s/c%d ws=%d iters=%d density=%s at=%d reps=%d stdin=%d:%016x@%s",
			g.Kind, g.Class, g.WS, g.Iters, g.Density, g.TaintAt, g.Reps, len(g.Stdin), h.Sum64(), j.Tenant)
	}
	return j.Scenario.Name + "@" + j.Tenant
}

// name is the job's short label (no seed-dependent detail).
func (j job) name() string {
	if j.Guest != nil {
		return j.Guest.Kind
	}
	return j.Scenario.Name
}

// genJobs builds the workload's job list for a seed. Closed-loop
// clients and the open-loop generator both cycle through it.
func genJobs(workload string, seed int64) []job {
	rng := newRand(seed)
	var out []job
	switch workload {
	case "corpus":
		scs := corpus.All()
		for cycle := 0; cycle < 16; cycle++ {
			for _, i := range rng.Perm(len(scs)) {
				out = append(out, job{Scenario: scs[i]})
			}
		}
	case "guest-loops":
		out = shuffle(rng, loopJobs(rng))
	case "event-storm":
		out = shuffle(rng, stormJobs(rng))
	}
	// Service submissions carry one of 16 tenants, drawn from a
	// separate stream so the job list itself does not depend on it.
	trng := newRand(seed ^ 0x7e7a)
	for i := range out {
		out[i].Tenant = fmt.Sprintf("tenant-%02d", trng.Intn(16))
	}
	return out
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func shuffle(rng *rand.Rand, js []job) []job {
	rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
	return js
}

// Working-set size classes: 256 B to 256 KiB, spanning the shadow
// TLB's four ways and the clean tier's page-footprint limit.
var wsClasses = []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}

// loopWords is the word-iterations a loop job spends in its main
// loop, whatever its working set: small sets take more passes.
const loopWords = 1 << 16

func loopJobs(rng *rand.Rand) []job {
	var out []job
	add := func(g *guest) { out = append(out, job{Guest: g}) }
	for class, base := range wsClasses {
		// Seeded size within the class: 3/4 to all of the base,
		// rounded to 64 bytes.
		ws := func() int { return (base*3/4 + rng.Intn(base/4+1)) &^ 63 }
		for _, d := range []string{"none", "sparse", "dense"} {
			w := ws()
			add(memGuest(rng, "copy", class, w, d))
			w = ws()
			add(memGuest(rng, "strlen", class, w, d))
			if d != "none" { // the checksum always covers stdin data
				w = ws()
				add(memGuest(rng, "checksum", class, w, d))
			}
		}
		add(memGuest(rng, "sparse", class, ws(), "sparse"))
	}
	for _, d := range []string{"none", "sparse", "dense"} {
		for k := 0; k < 2; k++ {
			g := &guest{Kind: "alu", Class: k, Density: d,
				Iters: 49152 + rng.Intn(32768)}
			if d != "none" {
				g.Stdin = randBytes(rng, 4)
			}
			g.Src = aluSrc(g)
			add(g)
		}
	}
	return out
}

func memGuest(rng *rand.Rand, kind string, class, ws int, density string) *guest {
	g := &guest{Kind: kind, Class: class, WS: ws, Density: density}
	g.Iters = loopWords / (ws / 4)
	if g.Iters < 1 {
		g.Iters = 1
	}
	if kind == "strlen" {
		// A byte loop: keep the total byte count near loopWords.
		g.Iters = loopWords / ws
		if g.Iters < 1 {
			g.Iters = 1
		}
	}
	switch density {
	case "sparse":
		g.Stdin = randBytes(rng, 64)
		if kind != "sparse" {
			// Anywhere in the set, clear of a strlen terminator.
			g.TaintAt = rng.Intn((ws-128)/4+1) * 4
		}
	case "dense":
		n := ws
		if kind == "strlen" {
			n = ws - 1 // keep the terminator
		}
		g.Stdin = randBytes(rng, n)
		if kind == "strlen" {
			// One embedded NUL in the second half varies the length.
			g.Stdin[n/2+rng.Intn(n-n/2)] = 0
		}
	}
	switch kind {
	case "copy", "sparse":
		g.Src = copySrc(g)
	case "checksum":
		g.Src = checksumSrc(g)
	case "strlen":
		g.Src = strlenSrc(g)
	}
	return g
}

// randBytes draws n nonzero bytes.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + rng.Intn(255))
	}
	return b
}

// Event-storm job sizes: monitored syscalls per job, 50 to 2000.
var stormClasses = []int{50, 100, 200, 500, 1000, 2000}

// stormSyscalls is the syscalls one repetition of each storm kind
// issues.
var stormSyscalls = map[string]int{
	"file": 3, // creat, write, close
	"read": 3, // open, read, close
	"net":  4, // socket, connect, send, close
	"proc": 4, // fork, waitpid, execve, exit
}

// stormEvents is the events one repetition of each storm kind sends
// Secpert: every open/creat, execve, fork and connect is an access
// event, every read/write/send on a descriptor an I/O event, and every
// close of an open descriptor an access event; socket, waitpid and
// exit send none, and nothing else does. A repetition whose open
// failed sends only the open.
var stormEvents = map[string]int{
	"file": 3, // creat, write, close
	"read": 3, // open, read, close
	"net":  3, // connect, send, close
	"proc": 2, // fork, the child's execve
}

var stormKinds = []string{"file", "read", "net", "proc"}

// stormDraws is how many jobs each (kind, size class) stratum gets
// per cycle; averaging draws keeps a cycle's cost steady across seeds.
const stormDraws = 3

func stormJobs(rng *rand.Rand) []job {
	var out []job
	for _, kind := range stormKinds {
		for class, base := range stormClasses {
			for k := 0; k < stormDraws; k++ {
				// Seeded size within ±10% of the class.
				n := base*9/10 + rng.Intn(base/5+1)
				g := &guest{Kind: kind, Class: class, Reps: max(1, n/stormSyscalls[kind])}
				g.Src = stormSrc(g)
				out = append(out, job{Guest: g})
			}
		}
	}
	return out
}

// Guest sources. The loop guests build their data from register-only
// arithmetic (xor/inc/add of registers), which carries no taint, so
// "none" really is taint-free; stdin reads are the only taint source
// the densities add. Each guest ends by emitting one 32-bit result,
// which the Go oracle below recomputes independently.

const emitResult = `
    mov [res], eax
    mov ebx, 1
    mov ecx, res
    mov edx, 4
    mov eax, 4          ; write(stdout, res, 4)
    int 0x80
    hlt
`

// fillClean stores the sequence a(0)=0, b=1; a+=b, b+=a into every
// word of the working set.
func fillClean(ws int) string {
	return fmt.Sprintf(`
    xor eax, eax
    xor ebx, ebx
    inc ebx
    mov edi, 0
fill:
    mov ecx, %d
    add ecx, edi
    mov [ecx], eax
    add eax, ebx
    add ebx, eax
    add edi, 4
    cmp edi, %d
    jl fill
`, srcBase, ws)
}

// readStdin reads n stdin bytes to addr (a number or a symbol).
func readStdin(addr string, n int) string {
	return fmt.Sprintf(`
    mov ebx, 0
    mov ecx, %s
    mov edx, %d
    mov eax, 3          ; read(stdin)
    int 0x80
`, addr, n)
}

// taintRead places the guest's stdin per its density.
func taintRead(g *guest) string {
	switch {
	case g.Kind == "sparse":
		return readStdin("tbuf", len(g.Stdin))
	case g.Density == "sparse", g.Density == "dense":
		return readStdin(fmt.Sprint(srcBase+g.TaintAt), len(g.Stdin))
	}
	return ""
}

func copySrc(g *guest) string {
	return ".text\n_start:\n" + fillClean(g.WS) + taintRead(g) + fmt.Sprintf(`
    mov esi, %d
pass:
    mov edi, 0
copy:
    mov ecx, %d
    add ecx, edi
    mov eax, [ecx]
    mov [ecx+%d], eax
    add edi, 4
    cmp edi, %d
    jl copy
    dec esi
    jnz pass
    xor eax, eax
    mov edi, 0
sum:
    mov ecx, %d
    add ecx, edi
    add eax, [ecx]
    add edi, 4
    cmp edi, %d
    jl sum
`, g.Iters, srcBase, dstBase-srcBase, g.WS, dstBase, g.WS) + emitResult + `
.data
res:  .space 4
tbuf: .space 64
`
}

// checksumOut is the hardcoded file the checksum guest writes.
const checksumOut = "cksum.out"

func checksumSrc(g *guest) string {
	return ".text\n_start:\n" + fillClean(g.WS) + taintRead(g) + fmt.Sprintf(`
    xor eax, eax
    mov esi, %d
pass:
    mov edi, 0
ck:
    mov ecx, %d
    add ecx, edi
    mul eax, 31
    add eax, [ecx]
    add edi, 4
    cmp edi, %d
    jl ck
    dec esi
    jnz pass
    mov [res], eax
    mov ebx, outf
    mov eax, 8          ; creat(outf)
    int 0x80
    mov ebx, eax
    mov ecx, res
    mov edx, 4
    mov eax, 4          ; write(fd, res, 4)
    int 0x80
    hlt
.data
res:  .space 4
outf: .asciz "%s"
`, g.Iters, srcBase, g.WS, checksumOut)
}

func strlenSrc(g *guest) string {
	// 0x01010101 from register-only arithmetic: every byte nonzero,
	// no immediate taint.
	return fmt.Sprintf(`.import "libc.so"
.text
_start:
    xor eax, eax
    inc eax
    mov ebx, eax
`+strings.Repeat("    add ebx, ebx\n", 8)+`    add eax, ebx
    mov ebx, eax
`+strings.Repeat("    add ebx, ebx\n", 16)+`    add eax, ebx
    mov edi, 0
fill:
    mov ecx, %d
    add ecx, edi
    mov [ecx], eax
    add edi, 4
    cmp edi, %d
    jl fill
    xor eax, eax
    mov ecx, %d
    movb [ecx], eax     ; terminator
`, srcBase, g.WS, srcBase+g.WS-1) + taintRead(g) + fmt.Sprintf(`
    xor edi, edi
    mov esi, %d
again:
    mov ebx, %d
    call strlen
    add edi, eax
    dec esi
    jnz again
    mov eax, edi
`, g.Iters, srcBase) + emitResult + `
.data
res:  .space 4
`
}

func aluSrc(g *guest) string {
	var taint, dense string
	if g.Density != "none" {
		taint = readStdin("res", 4) + "    mov ebx, [res]\n"
	}
	if g.Density == "dense" {
		dense = "    add eax, [res]\n"
	}
	return ".text\n_start:\n    xor ebx, ebx\n    inc ebx\n" + taint + fmt.Sprintf(`
    xor eax, eax
    mov esi, %d
loop:
    add eax, esi
    xor eax, ebx
    shl eax, 1
    or  eax, 0x5A5A
    and eax, 0xFFFFFF
`+dense+`    add ebx, eax
    dec esi
    jnz loop
`, g.Iters) + emitResult + `
.data
res:  .space 4
`
}

// Event-storm fixtures.
const (
	stormFile   = "storm.log"
	stormInput  = "storm.in"
	stormRemote = "sink.example:80"
	stormChild  = "/bin/storm-child"
)

func stormSrc(g *guest) string {
	body := map[string]string{
		"file": `
    mov ebx, fname
    mov eax, 8          ; creat
    int 0x80
    mov ebx, eax
    mov ecx, payload
    mov edx, 16
    mov eax, 4          ; write
    int 0x80
    mov eax, 6          ; close
    int 0x80
`,
		"read": `
    mov ebx, iname
    mov ecx, 0
    mov eax, 5          ; open
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 16
    mov eax, 3          ; read
    int 0x80
    mov eax, 6          ; close
    int 0x80
`,
		"net": `
    mov eax, 102
    mov ebx, 1          ; socket
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], url
    mov eax, 102
    mov ebx, 3          ; connect
    mov ecx, scargs
    int 0x80
    mov [scargs+4], payload
    mov [scargs+8], 16
    mov eax, 102
    mov ebx, 9          ; send
    mov ecx, scargs
    int 0x80
    mov ebx, [scargs]
    mov eax, 6          ; close
    int 0x80
`,
		"proc": `
    mov eax, 2          ; fork
    int 0x80
    cmp eax, 0
    jz child
    mov ebx, eax
    mov ecx, status
    mov edx, 0
    mov eax, 7          ; waitpid
    int 0x80
`,
	}[g.Kind]
	return fmt.Sprintf(`.text
_start:
    mov esi, %d
rep:`, g.Reps) + body + `
    dec esi
    jnz rep
    hlt
child:
    mov ebx, cpath
    mov ecx, 0
    mov edx, 0
    mov eax, 11         ; execve
    int 0x80
    mov ebx, 1
    mov eax, 1
    int 0x80
.data
fname:   .asciz "` + stormFile + `"
iname:   .asciz "` + stormInput + `"
url:     .asciz "` + stormRemote + `"
cpath:   .asciz "` + stormChild + `"
payload: .asciz "event-storm-data"
buf:     .space 16
status:  .space 4
scargs:  .space 12
`
}

const stormChildSrc = `
.text
_start:
    mov ebx, 0
    mov eax, 1          ; exit(0)
    int 0x80
`

type sinkRemote struct{}

func (sinkRemote) OnConnect(*vos.RemoteConn)      {}
func (sinkRemote) OnData(*vos.RemoteConn, []byte) {}

// install places a guest job's programs, files and remotes into a
// fresh system.
func (g *guest) install(sys *hth.System) error {
	if err := sys.InstallSource("/bin/guest", g.Src); err != nil {
		return fmt.Errorf("install %s guest: %w", g.Kind, err)
	}
	switch g.Kind {
	case "read":
		sys.CreateFile(stormInput, []byte("storm input data, sixteen+ bytes"))
	case "net":
		sys.AddRemote(stormRemote, func() vos.RemoteScript { return sinkRemote{} })
	case "proc":
		if err := sys.InstallSource(stormChild, stormChildSrc); err != nil {
			return fmt.Errorf("install storm child: %w", err)
		}
	}
	return nil
}

// Oracles: the loop guests' results recomputed in Go.

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// memImage returns the working set after fill and stdin placement.
func (g *guest) memImage() []byte {
	mem := make([]byte, g.WS)
	switch g.Kind {
	case "strlen":
		for i := 0; i+4 <= g.WS; i += 4 {
			binary.LittleEndian.PutUint32(mem[i:], 0x01010101)
		}
		mem[g.WS-1] = 0
	default:
		var a, b uint32 = 0, 1
		for i := 0; i+4 <= g.WS; i += 4 {
			binary.LittleEndian.PutUint32(mem[i:], a)
			a += b
			b += a
		}
	}
	if g.Kind != "sparse" && g.Density != "none" {
		copy(mem[g.TaintAt:], g.Stdin)
	}
	return mem
}

// expected is the value the guest must emit.
func (g *guest) expected() uint32 {
	switch g.Kind {
	case "alu":
		var a, b uint32 = 0, 1
		var t uint32
		if g.Density != "none" {
			t = le32(g.Stdin)
			b = t
		}
		for s := uint32(g.Iters); s != 0; s-- {
			a += s
			a ^= b
			a <<= 1
			a |= 0x5A5A
			a &= 0xFFFFFF
			if g.Density == "dense" {
				a += t
			}
			b += a
		}
		return a
	case "copy", "sparse":
		mem := g.memImage()
		var sum uint32
		for i := 0; i+4 <= g.WS; i += 4 {
			sum += le32(mem[i:])
		}
		return sum
	case "checksum":
		mem := g.memImage()
		var h uint32
		for p := 0; p < g.Iters; p++ {
			for i := 0; i+4 <= g.WS; i += 4 {
				h = h*31 + le32(mem[i:])
			}
		}
		return h
	case "strlen":
		mem := g.memImage()
		n := 0
		for mem[n] != 0 {
			n++
		}
		return uint32(n * g.Iters)
	}
	return 0
}
