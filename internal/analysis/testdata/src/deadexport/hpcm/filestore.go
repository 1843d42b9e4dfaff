// Fixture for deadexport's keep table, loaded as autoresched/internal/hpcm:
// a kept type keeps its fields.
package hpcm

// FileStore is on the keep table.
type FileStore struct {
	// Dir is read and nothing sets it: exempt through its type's entry.
	Dir string
}

func (s *FileStore) path() string { return s.Dir }

var _ = new(FileStore).path()
