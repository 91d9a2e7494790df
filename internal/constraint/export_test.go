package constraint

// addContainer is AddContainer with the tags' VectorHash computed here.
func (s *Set) addContainer(tags []Tag) { s.AddContainer(tags, VectorHash(tags)) }

// removeContainer is RemoveContainer with the tags' VectorHash computed
// here.
func (s *Set) removeContainer(tags []Tag) { s.RemoveContainer(tags, VectorHash(tags)) }
