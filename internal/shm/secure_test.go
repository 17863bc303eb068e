package shm

import (
	"context"
	"errors"
	"testing"
	"time"

	"aodb/internal/auth"
	"aodb/internal/core"
)

func newSecurePlatform(t *testing.T) *SecurePlatform {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	rt.AddSilo("silo-1", nil)
	p, err := NewPlatform(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := auth.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	return Secure(p, a)
}

// setupSecureOrg creates an org with one sensor and returns tokens for
// an engineer, a device, and an analyst.
func setupSecureOrg(t *testing.T, s *SecurePlatform, org string) (engineer, device, analyst string) {
	t.Helper()
	ctx := context.Background()
	var err error
	if engineer, err = s.auth.CreateUser(ctx, org, "eng", auth.RoleEngineer); err != nil {
		t.Fatal(err)
	}
	if device, err = s.auth.CreateUser(ctx, org, "gw", auth.RoleDevice); err != nil {
		t.Fatal(err)
	}
	if analyst, err = s.auth.CreateUser(ctx, org, "ana", auth.RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallSensor(ctx, engineer, SensorSpec{Org: org, Key: SensorKey(org, 0), PhysicalChannels: 1}); err != nil {
		t.Fatal(err)
	}
	return engineer, device, analyst
}

func TestSecureIngestAndQueryFlow(t *testing.T) {
	s := newSecurePlatform(t)
	ctx := context.Background()
	_, device, analyst := setupSecureOrg(t, s, "org-1")
	sensor := SensorKey("org-1", 0)
	if err := s.Ingest(ctx, device, sensor, t0, [][]float64{{1, 2, 3}}); err != nil {
		t.Fatalf("device ingest: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		pts, err := s.RawData(ctx, analyst, ChannelKey(sensor, 0), t0.Add(-time.Hour), t0.Add(time.Hour))
		if err != nil {
			t.Fatalf("analyst raw query: %v", err)
		}
		if len(pts) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("points = %d", len(pts))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.LiveData(ctx, analyst, "org-1"); err != nil {
		t.Fatalf("analyst live query: %v", err)
	}
	if _, err := s.Alerts(ctx, analyst, "org-1", 5); err != nil {
		t.Fatalf("analyst alerts: %v", err)
	}
	if _, err := s.Aggregates(ctx, analyst, "org-1", LevelHour, ""); err != nil {
		t.Fatalf("analyst aggregates: %v", err)
	}
}

func TestRoleEnforcement(t *testing.T) {
	s := newSecurePlatform(t)
	ctx := context.Background()
	_, device, analyst := setupSecureOrg(t, s, "org-1")
	sensor := SensorKey("org-1", 0)
	// A device token cannot query.
	if _, err := s.LiveData(ctx, device, "org-1"); !errors.Is(err, auth.ErrForbidden) {
		t.Fatalf("device live query = %v, want ErrForbidden", err)
	}
	// An analyst token cannot ingest or configure.
	if err := s.Ingest(ctx, analyst, sensor, t0, [][]float64{{1}}); !errors.Is(err, auth.ErrForbidden) {
		t.Fatalf("analyst ingest = %v, want ErrForbidden", err)
	}
	if err := s.InstallSensor(ctx, analyst, SensorSpec{Org: "org-1", Key: SensorKey("org-1", 1)}); !errors.Is(err, auth.ErrForbidden) {
		t.Fatalf("analyst configure = %v, want ErrForbidden", err)
	}
}

func TestCrossTenantTokensRejected(t *testing.T) {
	s := newSecurePlatform(t)
	ctx := context.Background()
	engineerA, deviceA, _ := setupSecureOrg(t, s, "org-a")
	setupSecureOrg(t, s, "org-b")
	// org-a tokens must be useless against org-b's data, including when
	// the attacker names org-b's sensor directly.
	if _, err := s.LiveData(ctx, engineerA, "org-b"); !errors.Is(err, auth.ErrUnauthenticated) {
		t.Fatalf("cross-tenant query = %v, want ErrUnauthenticated", err)
	}
	sensorB := SensorKey("org-b", 0)
	if err := s.Ingest(ctx, deviceA, sensorB, t0, [][]float64{{666}}); !errors.Is(err, auth.ErrUnauthenticated) {
		t.Fatalf("cross-tenant ingest = %v, want ErrUnauthenticated", err)
	}
	// And org-b's channel remained untouched.
	pts, err := s.p.RawData(ctx, ChannelKey(sensorB, 0), t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Fatalf("org-b channel has %d points after rejected ingest", len(pts))
	}
}

func TestGarbageTokenRejected(t *testing.T) {
	s := newSecurePlatform(t)
	ctx := context.Background()
	setupSecureOrg(t, s, "org-1")
	if _, err := s.LiveData(ctx, "not-a-token", "org-1"); !errors.Is(err, auth.ErrUnauthenticated) {
		t.Fatalf("garbage token = %v, want ErrUnauthenticated", err)
	}
}

func TestOrgOfKey(t *testing.T) {
	for key, want := range map[string]string{
		"org-3@sensor-17/ch-0": "org-3",
		"org-3@agg/hour":       "org-3",
		"org-3":                "org-3",
	} {
		if got := orgOfKey(key); got != want {
			t.Errorf("orgOfKey(%q) = %q, want %q", key, got, want)
		}
	}
}
