package guard

import "cnnhe/internal/henn"

// Adopt is Check on a ciphertext read off the wire, returned as it is.
// It stays only because benchmark/workloads.go calls it:
// exec.Prepared.RunEncrypted checks every input itself.
func (g *GuardedEngine) Adopt(ct henn.Ct) (henn.Ct, error) { return ct, g.Check(ct) }

// Underlying returns ct: the guard hands the engine's own ciphertexts
// through. It stays only because benchmark/workloads.go calls it.
func Underlying(ct henn.Ct) henn.Ct { return ct }
