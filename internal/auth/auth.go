// Package auth implements authentication and access control for the IoT
// data platform — non-functional requirement 7 of the paper, which its
// prototype satisfies "at the application level by building on actor
// modularity features".
//
// Each tenant's user table and token hashes live inside that tenant's own
// auth actor, so tenants are isolated by the same actor encapsulation
// that isolates their data: there is no shared user store to misconfigure
// across tenants. Tokens are random 256-bit values; only SHA-256 hashes
// are stored.
package auth

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"

	"aodb/internal/codec"
	"aodb/internal/core"
)

// Kind is the per-tenant auth actor kind.
const Kind = "sys.auth"

// Role is a named capability bundle.
type Role string

// Roles, mirroring the stakeholders of the paper's case studies.
const (
	RoleAdmin    Role = "admin"    // manage users, full access
	RoleEngineer Role = "engineer" // configure sensors, ingest, query
	RoleDevice   Role = "device"   // ingest only (sensor endpoints)
	RoleAnalyst  Role = "analyst"  // query only
)

// Permission is one guarded operation class.
type Permission string

// Permissions.
const (
	PermIngest      Permission = "ingest"
	PermQuery       Permission = "query"
	PermConfigure   Permission = "configure"
	PermManageUsers Permission = "manage-users"
)

var rolePerms = map[Role]map[Permission]bool{
	RoleAdmin:    {PermIngest: true, PermQuery: true, PermConfigure: true, PermManageUsers: true},
	RoleEngineer: {PermIngest: true, PermQuery: true, PermConfigure: true},
	RoleDevice:   {PermIngest: true},
	RoleAnalyst:  {PermQuery: true},
}

// Principal is an authenticated identity.
type Principal struct {
	User   string
	Tenant string
	Roles  []Role
}

// Allowed reports whether any of the principal's roles grants perm.
func (p Principal) Allowed(perm Permission) bool {
	for _, r := range p.Roles {
		if rolePerms[r][perm] {
			return true
		}
	}
	return false
}

// Errors.
var (
	ErrUnauthenticated = errors.New("auth: invalid or unknown token")
	ErrForbidden       = errors.New("auth: permission denied")
	ErrUserExists      = errors.New("auth: user already exists")
)

// Messages handled by tenant auth actors.
type (
	// CreateUser registers a user with roles; the reply is the secret
	// token (returned once, never stored in clear).
	CreateUser struct {
		User  string
		Roles []Role
	}
	// Check authenticates a token hash, replying with the Principal.
	Check struct{ TokenHash string }
)

type userRecord struct {
	Roles     []Role
	TokenHash string
}

type tenantAuthActor struct {
	state tenantAuthState
}

type tenantAuthState struct {
	Users map[string]userRecord
}

func (a *tenantAuthActor) State() any { return &a.state }

func (a *tenantAuthActor) Receive(ctx *core.Context, msg any) (any, error) {
	if a.state.Users == nil {
		a.state.Users = make(map[string]userRecord)
	}
	switch m := msg.(type) {
	case CreateUser:
		if m.User == "" || len(m.Roles) == 0 {
			return nil, errors.New("auth: user needs a name and at least one role")
		}
		if _, ok := a.state.Users[m.User]; ok {
			return nil, fmt.Errorf("%w: %s", ErrUserExists, m.User)
		}
		token, hash, err := newToken()
		if err != nil {
			return nil, err
		}
		a.state.Users[m.User] = userRecord{Roles: append([]Role(nil), m.Roles...), TokenHash: hash}
		if err := ctx.WriteState(); err != nil {
			return nil, err
		}
		return token, nil
	case Check:
		for user, rec := range a.state.Users {
			if subtle.ConstantTimeCompare([]byte(rec.TokenHash), []byte(m.TokenHash)) == 1 {
				return Principal{
					User:   user,
					Tenant: ctx.Self().Key,
					Roles:  append([]Role(nil), rec.Roles...),
				}, nil
			}
		}
		return nil, ErrUnauthenticated
	default:
		return nil, fmt.Errorf("auth: unknown message %T", msg)
	}
}

func newToken() (token, hash string, err error) {
	raw := make([]byte, 32)
	if _, err := rand.Read(raw); err != nil {
		return "", "", err
	}
	token = hex.EncodeToString(raw)
	return token, hashToken(token), nil
}

func hashToken(token string) string {
	sum := sha256.Sum256([]byte(token))
	return hex.EncodeToString(sum[:])
}

func init() {
	codec.Register(CreateUser{})
	codec.Register(Check{})
	codec.Register(Principal{})
	codec.Register([]Role{})
}

// Service is the client surface for authentication and authorization.
type Service struct {
	rt *core.Runtime
}

// New registers the auth kind and returns the service. A tenant's users
// outlive its activation: on a runtime with a store they are loaded at
// activation and written when it is collected or the runtime shuts down.
func New(rt *core.Runtime) (*Service, error) {
	if err := rt.RegisterKind(Kind, func() core.Actor { return &tenantAuthActor{} },
		core.WithPersistence(core.PersistOnDeactivate)); err != nil {
		return nil, err
	}
	return &Service{rt: rt}, nil
}

func tenantID(tenant string) core.ID { return core.ID{Kind: Kind, Key: tenant} }

// CreateUser registers a user under a tenant and returns its secret
// token. The token is shown exactly once.
func (s *Service) CreateUser(ctx context.Context, tenant, user string, roles ...Role) (string, error) {
	v, err := s.rt.Call(ctx, tenantID(tenant), CreateUser{User: user, Roles: roles})
	if err != nil {
		return "", err
	}
	return v.(string), nil
}

// Authenticate resolves a token within a tenant.
func (s *Service) Authenticate(ctx context.Context, tenant, token string) (Principal, error) {
	v, err := s.rt.Call(ctx, tenantID(tenant), Check{TokenHash: hashToken(token)})
	if err != nil {
		return Principal{}, err
	}
	return v.(Principal), nil
}

// Authorize authenticates a token and checks that it grants perm inside
// tenant. This is the single gate the platform facades call: the tenant
// in the token and the tenant owning the data must be the same actor.
func (s *Service) Authorize(ctx context.Context, tenant, token string, perm Permission) (Principal, error) {
	p, err := s.Authenticate(ctx, tenant, token)
	if err != nil {
		return Principal{}, err
	}
	if !p.Allowed(perm) {
		return Principal{}, fmt.Errorf("%w: %s needs %q", ErrForbidden, p.User, perm)
	}
	return p, nil
}
