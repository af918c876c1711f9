package dynet

// SortMessagesByFrom orders an inbox by sender id with the kernel's
// stable insertion sort, so independently assembled inboxes (e.g. from
// relay frames arriving over TCP) land in the kernel's delivery order.
func SortMessagesByFrom(msgs []Message) { sortByFrom(msgs) }
