package corpus

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	hth "repro"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guestlib"
	"repro/internal/image"
)

// TestSharedGuestImagesImmutable holds the contract that lets every
// guest world install the same process-wide libc.so and ld-linux.so
// images: nothing the corpus does — batch, batch under run-level
// chaos, or through the service under a service-level fault storm —
// may modify them. After all three sweeps the shared images must still
// equal a fresh assembly of their sources.
func TestSharedGuestImagesImmutable(t *testing.T) {
	scs := All()
	sys := hth.NewSystem()
	for _, want := range []struct {
		name string
		img  *image.Image
	}{{guestlib.LibcName, guestlib.Libc()}, {guestlib.LdName, guestlib.Ld()}} {
		f, ok := sys.OS.FS.Lookup(want.name)
		if !ok || f.Image != want.img {
			t.Fatalf("%s: NewSystem did not install the shared image", want.name)
		}
	}

	RunAll(scs, 4)
	RunAllChaos(scs, 4, chaos.Plan{Seed: 0xC0FFEE, Rate: 0.05})

	svc := hth.NewService(hth.ServiceConfig{
		Shards: 4, WorkersPerShard: 2, QueueDepth: len(scs),
		MaxRetries: 2, RetryBackoff: time.Millisecond,
		Chaos: &chaos.Plan{Seed: 0xC0FFEE, Rate: 0.25},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var handles []*hth.JobHandle
	for _, sc := range scs {
		h, err := svc.Submit(hth.JobSpec{
			Tenant: sc.Table, Setup: sc.Setup, Tweak: sc.Tweak,
			Path: sc.Spec.Path, Argv: sc.Spec.Argv, Env: sc.Spec.Env, Stdin: sc.Spec.Stdin,
		})
		var jerr *hth.JobError
		if errors.As(err, &jerr) && jerr.Code == hth.JobBadSpec {
			continue // a corrupted spec is one of the storm's faults
		}
		if err != nil {
			t.Fatalf("submit %s: %v", sc.Name, err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatalf("job never terminated: %v", err)
		}
	}
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, c := range []struct {
		name, src string
		shared    *image.Image
	}{
		{guestlib.LibcName, guestlib.LibcSrc, guestlib.Libc()},
		{guestlib.LdName, guestlib.LdSrc, guestlib.Ld()},
	} {
		fresh, err := asm.Assemble(c.name, c.src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.shared, fresh) {
			t.Errorf("%s: the shared image no longer matches a fresh assembly", c.name)
		}
	}
}
