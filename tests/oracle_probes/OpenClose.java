import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

@ThreadSafe
class OpenClose {
  private final Lock lock = new ReentrantLock();

  public void open() {
    lock.lock();
  }

  public void close() {
    lock.unlock();
  }
}
