package core

// Len reports how many transaction contexts m holds, live or decided.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ctxs)
}
