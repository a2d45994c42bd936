import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// the write runs between two windows: the unlock before it ends the first
@ThreadSafe
class Relock {
  private int n = 0;
  private final Lock lock = new ReentrantLock();

  public void inc() {
    lock.lock();
    lock.unlock();
    n = n + 1;
    lock.lock();
    lock.unlock();
  }
}
