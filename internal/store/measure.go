package store

// GetMeasurement looks up the persisted size for a platform-qualified
// canonical spec. Together with PutMeasurement it satisfies
// core.MeasurementStore, letting the audit's caching provider treat the
// store as a second, durable cache tier: a disk hit costs no upstream query.
func (s *Store) GetMeasurement(platform, canonicalSpec string) (int64, bool) {
	return s.Get(KeyOf(platform, canonicalSpec))
}

// PutMeasurement durably records a platform-qualified measurement.
func (s *Store) PutMeasurement(platform, canonicalSpec string, size int64) error {
	return s.Put(KeyOf(platform, canonicalSpec), size)
}
