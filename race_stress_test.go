package hth_test

import (
	"sync"
	"testing"

	hth "repro"
)

// TestConcurrentIndependentSystems is the -race stress for the
// concurrency contract the service relies on: independent Systems
// share no mutable state, so concurrent Run calls across them are
// safe and their detections deterministic. Run with -race, this is
// the reentrancy audit of the vos/harrier/secpert stack.
func TestConcurrentIndependentSystems(t *testing.T) {
	const goroutines = 8
	const iterations = 3

	for _, leg := range []struct {
		name string
		run  func(*testing.T) []string
	}{
		{"trojan", runTrojanOnce},
		// Every System installs the same process-wide libc.so image;
		// this leg has the loader read it from every goroutine at once
		// and runs system() (fork + exec) and gethostbyname through it.
		{"libc", runLibcOnce},
	} {
		t.Run(leg.name, func(t *testing.T) {
			ref := leg.run(t)
			if len(ref) == 0 {
				t.Fatal("reference run raised no warning")
			}
			var wg sync.WaitGroup
			results := make([][]string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iterations; i++ {
						results[g] = leg.run(t)
					}
				}(g)
			}
			wg.Wait()
			for g, warnings := range results {
				if len(warnings) != len(ref) {
					t.Errorf("goroutine %d: %d warnings, want %d", g, len(warnings), len(ref))
					continue
				}
				for i := range warnings {
					if warnings[i] != ref[i] {
						t.Errorf("goroutine %d warning %d: %q != %q", g, i, warnings[i], ref[i])
					}
				}
			}
		})
	}
}

func runTrojanOnce(t *testing.T) []string {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", lsSrc)
	sys.MustInstallSource("/bin/trojan", trojanSrc)
	return runWarnings(t, sys, "/bin/trojan")
}

// libcUserSrc resolves a hardcoded host through libc's gethostbyname,
// writes the address to a hardcoded file, and then runs a command
// through libc's system().
const libcUserSrc = `
.import "libc.so"
.text
_start:
    mov ebx, host
    call gethostbyname
    cmp eax, 0
    jz done
    mov esi, eax
    mov ebx, path
    mov eax, 8          ; creat
    int 0x80
    mov ebx, eax
    mov ecx, esi
    mov edx, 8
    mov eax, 4          ; write the resolved address
    int 0x80
    mov ebx, cmd
    call system
done:
    mov ebx, 0
    call exit
.data
host: .asciz "update.example"
path: .asciz "hosts.cache"
cmd:  .asciz "/bin/ls -l"
`

func runLibcOnce(t *testing.T) []string {
	sys := hth.NewSystem()
	sys.AddHost("update.example", "10.0.0.7")
	sys.MustInstallSource("/bin/sh", lsSrc)
	sys.MustInstallSource("/bin/libcuser", libcUserSrc)
	return runWarnings(t, sys, "/bin/libcuser")
}

func runWarnings(t *testing.T, sys *hth.System, path string) []string {
	res, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: path})
	if err != nil {
		t.Errorf("run: %v", err)
		return nil
	}
	out := make([]string, len(res.Warnings))
	for i, w := range res.Warnings {
		out[i] = w.String()
	}
	return out
}

// TestSharedSystemConcurrentRunRejected documents why the service
// gives every job a private System: a System is one guest world with
// one scheduler, and the API rejects a second concurrent Run with
// ErrSystemBusy instead of interleaving mutable OS state.
func TestSharedSystemConcurrentRunRejected(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", lsSrc)
	sys.MustInstallSource("/bin/trojan", trojanSrc)

	const attempts = 8
	errs := make(chan error, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/trojan"})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var ok, busy int
	for err := range errs {
		switch err {
		case nil:
			ok++
		case hth.ErrSystemBusy:
			busy++
		default:
			t.Errorf("concurrent Run on one System: %v", err)
		}
	}
	if ok == 0 {
		t.Error("every concurrent Run was rejected; at least one should win the slot")
	}
	if ok+busy != attempts {
		t.Errorf("ok=%d busy=%d of %d", ok, busy, attempts)
	}
}
