package shm

import (
	"context"
	"time"

	"aodb/internal/auth"
)

// SecurePlatform gates every platform operation behind tenant-scoped
// authentication and role-based authorization — non-functional
// requirement 7 ("the IoT data platform should support data protection,
// enforcing authentication and access control over different users and
// profiles"). The tenant is the organization: a token issued for org-1
// cannot touch org-2's actors, because org-2's user table lives in a
// different auth actor entirely.
type SecurePlatform struct {
	p    *Platform
	auth *auth.Service
}

// Secure wraps a platform with the given auth service.
func Secure(p *Platform, a *auth.Service) *SecurePlatform {
	return &SecurePlatform{p: p, auth: a}
}

// InstallSensor requires configure rights on the owning org.
func (s *SecurePlatform) InstallSensor(ctx context.Context, token string, spec SensorSpec) error {
	if _, err := s.auth.Authorize(ctx, spec.Org, token, auth.PermConfigure); err != nil {
		return err
	}
	return s.p.InstallSensor(ctx, spec)
}

// Ingest requires ingest rights on the sensor's org. The org is parsed
// from the sensor key ("org-3@sensor-17"), so a device token for one org
// cannot write into another org's channels by naming them.
func (s *SecurePlatform) Ingest(ctx context.Context, token, sensorKey string, at time.Time, perChannel [][]float64) error {
	if _, err := s.auth.Authorize(ctx, orgOfKey(sensorKey), token, auth.PermIngest); err != nil {
		return err
	}
	return s.p.Ingest(ctx, sensorKey, at, perChannel)
}

// LiveData requires query rights on the org.
func (s *SecurePlatform) LiveData(ctx context.Context, token, org string) ([]LiveReading, error) {
	if _, err := s.auth.Authorize(ctx, org, token, auth.PermQuery); err != nil {
		return nil, err
	}
	return s.p.LiveData(ctx, org)
}

// RawData requires query rights on the channel's org.
func (s *SecurePlatform) RawData(ctx context.Context, token, channel string, from, to time.Time) ([]DataPoint, error) {
	if _, err := s.auth.Authorize(ctx, orgOfKey(channel), token, auth.PermQuery); err != nil {
		return nil, err
	}
	return s.p.RawData(ctx, channel, from, to)
}

// Aggregates requires query rights on the org.
func (s *SecurePlatform) Aggregates(ctx context.Context, token, org, level, channel string) ([]BucketStat, error) {
	if _, err := s.auth.Authorize(ctx, org, token, auth.PermQuery); err != nil {
		return nil, err
	}
	return s.p.Aggregates(ctx, org, level, channel)
}

// Alerts requires query rights on the org.
func (s *SecurePlatform) Alerts(ctx context.Context, token, org string, limit int) ([]Alert, error) {
	if _, err := s.auth.Authorize(ctx, org, token, auth.PermQuery); err != nil {
		return nil, err
	}
	return s.p.Alerts(ctx, org, limit)
}

// orgOfKey extracts the owning org from family-prefixed actor keys like
// "org-3@sensor-17/ch-0". A key without a separator is its own org.
func orgOfKey(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '@' {
			return key[:i]
		}
	}
	return key
}
