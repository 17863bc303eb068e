package auth

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
)

func newService(t *testing.T, kv *kvstore.Store) (*Service, *core.Runtime) {
	t.Helper()
	rt, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	rt.AddSilo("silo-1", nil)
	s, err := New(rt)
	if err != nil {
		t.Fatal(err)
	}
	return s, rt
}

func TestCreateAndAuthenticate(t *testing.T) {
	s, _ := newService(t, nil)
	ctx := context.Background()
	token, err := s.CreateUser(ctx, "org-1", "alice", RoleEngineer)
	if err != nil {
		t.Fatal(err)
	}
	if len(token) != 64 {
		t.Fatalf("token length = %d, want 64 hex chars", len(token))
	}
	p, err := s.Authenticate(ctx, "org-1", token)
	if err != nil {
		t.Fatal(err)
	}
	if p.User != "alice" || p.Tenant != "org-1" || len(p.Roles) != 1 || p.Roles[0] != RoleEngineer {
		t.Fatalf("principal = %+v", p)
	}
}

func TestWrongTokenRejected(t *testing.T) {
	s, _ := newService(t, nil)
	ctx := context.Background()
	if _, err := s.CreateUser(ctx, "org-1", "alice", RoleEngineer); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Authenticate(ctx, "org-1", strings.Repeat("0", 64)); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated", err)
	}
}

func TestTenantIsolation(t *testing.T) {
	s, _ := newService(t, nil)
	ctx := context.Background()
	tokenA, err := s.CreateUser(ctx, "org-a", "alice", RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	// A valid org-a token must be worthless against org-b: the tenants
	// are separate actors with separate user tables.
	if _, err := s.Authenticate(ctx, "org-b", tokenA); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("cross-tenant auth = %v, want ErrUnauthenticated", err)
	}
}

func TestDuplicateUserRejected(t *testing.T) {
	s, _ := newService(t, nil)
	ctx := context.Background()
	if _, err := s.CreateUser(ctx, "org-1", "alice", RoleAnalyst); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateUser(ctx, "org-1", "alice", RoleAdmin); !errors.Is(err, ErrUserExists) {
		t.Fatalf("err = %v, want ErrUserExists", err)
	}
}

func TestUserValidation(t *testing.T) {
	s, _ := newService(t, nil)
	ctx := context.Background()
	if _, err := s.CreateUser(ctx, "org-1", "", RoleAdmin); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := s.CreateUser(ctx, "org-1", "bob"); err == nil {
		t.Fatal("user without roles accepted")
	}
}

func TestRolePermissions(t *testing.T) {
	cases := []struct {
		role    Role
		allowed []Permission
		denied  []Permission
	}{
		{RoleAdmin, []Permission{PermIngest, PermQuery, PermConfigure, PermManageUsers}, nil},
		{RoleEngineer, []Permission{PermIngest, PermQuery, PermConfigure}, []Permission{PermManageUsers}},
		{RoleDevice, []Permission{PermIngest}, []Permission{PermQuery, PermConfigure, PermManageUsers}},
		{RoleAnalyst, []Permission{PermQuery}, []Permission{PermIngest, PermConfigure, PermManageUsers}},
	}
	for _, c := range cases {
		p := Principal{User: "u", Tenant: "t", Roles: []Role{c.role}}
		for _, perm := range c.allowed {
			if !p.Allowed(perm) {
				t.Errorf("%s should allow %s", c.role, perm)
			}
		}
		for _, perm := range c.denied {
			if p.Allowed(perm) {
				t.Errorf("%s should deny %s", c.role, perm)
			}
		}
	}
}

func TestAuthorize(t *testing.T) {
	s, _ := newService(t, nil)
	ctx := context.Background()
	token, err := s.CreateUser(ctx, "org-1", "sensor-gw", RoleDevice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Authorize(ctx, "org-1", token, PermIngest); err != nil {
		t.Fatalf("device ingest denied: %v", err)
	}
	if _, err := s.Authorize(ctx, "org-1", token, PermQuery); !errors.Is(err, ErrForbidden) {
		t.Fatalf("device query = %v, want ErrForbidden", err)
	}
}

func TestTokensDistinct(t *testing.T) {
	s, _ := newService(t, nil)
	ctx := context.Background()
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		token, err := s.CreateUser(ctx, "org-1", string(rune('a'+i)), RoleAnalyst)
		if err != nil {
			t.Fatal(err)
		}
		if seen[token] {
			t.Fatal("duplicate token issued")
		}
		seen[token] = true
	}
}

func TestUsersAndHashesPersist(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx := context.Background()

	rt1, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(rt1)
	if err != nil {
		t.Fatal(err)
	}
	rt1.AddSilo("silo-1", nil)
	token, err := s1.CreateUser(ctx, "org-1", "alice", RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	rt2, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Shutdown(ctx)
	s2, err := New(rt2)
	if err != nil {
		t.Fatal(err)
	}
	rt2.AddSilo("silo-1", nil)
	p, err := s2.Authenticate(ctx, "org-1", token)
	if err != nil {
		t.Fatalf("token invalid after restart: %v", err)
	}
	if p.User != "alice" {
		t.Fatalf("principal = %+v", p)
	}
}
