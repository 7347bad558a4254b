package platform

// Session is an authenticated client acting as one account. Sessions are
// exactly what customers hand to an AAS: whoever holds the session can act
// as the account until the password is reset.
//
// A session holds no mutable state; its Do is a platform mutation, so it
// runs on the world loop's apply path like every other one.
//
// Every action is submitted as a Request through Do — the single entry
// point into the moderation pipeline. The former per-action shorthand
// methods (Follow, Like, ...) are gone; network clients reach Do through
// the /v1 wire envelope (internal/wire) instead.
type Session struct {
	p      *Platform
	id     AccountID
	epoch  uint64
	client ClientInfo
}

// Account returns the account this session acts as.
func (s *Session) Account() AccountID { return s.id }

// Client returns the session's client metadata.
func (s *Session) Client() ClientInfo { return s.client }
