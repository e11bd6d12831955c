package lib

import "testing"

func TestOnlyCallers(t *testing.T) {
	p := Point{1, 2}.Scale(2)
	if TestOnly()+Reference()+p.X+(box{4}).peek() != 11 {
		t.Fatal("fixture arithmetic")
	}
}
