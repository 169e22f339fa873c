// Fixture: crypto-alloc triggers (analyzed under a fake src/crypto/ path).
// Never compiled.
#include <cstdlib>

unsigned char* make_buffer(std::size_t n) {
    unsigned char* a = new unsigned char[n];        // crypto-alloc: new
    void* b = std::malloc(n);                       // crypto-alloc: malloc
    std::free(b);                                   // crypto-alloc: free
    delete[] a;                                     // crypto-alloc: delete
    return nullptr;
}

struct NoCopy {
    NoCopy(const NoCopy&) = delete;  // `= delete` is NOT an allocation
};
