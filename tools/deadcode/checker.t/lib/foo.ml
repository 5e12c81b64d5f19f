let called = 1
let only_tested = 2
let opened = 3
let aliased = 4
